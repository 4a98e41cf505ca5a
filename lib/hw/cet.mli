(** Control-flow Enforcement Technology (§2.2), forward edge: indirect-branch
    tracking (IBT). Erebor's EMC gates depend on IBT to force every monitor
    entry through the single endbr64 at the gate start. Returns are not
    modelled, so the shadow-stack (SST) half of CET has no engine here; the
    boot still sets S_CET's SST bit as the paper's does. *)

val ibt_blocks : s_cet:int -> endbr:bool -> bool
(** [ibt_blocks ~s_cet ~endbr] models an indirect [call]/[jmp]: true (a
    #CP) when IBT ({!Msr.s_cet_ibt_bit}) is on in the S_CET bits [s_cet]
    and the target does not start with endbr64 ([endbr] false).
    Allocation-free. *)
