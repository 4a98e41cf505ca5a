(** EMC entry/exit gates (§5.3, Fig. 5): the only doorway into the monitor's
    virtual privileged mode.

    Entry is guarded by CET forward CFI — the monitor's code image carries
    exactly one endbr64, at the entry gate — so an indirect branch anywhere
    else into monitor code raises #CP. The gate grants the core monitor
    memory permissions through its {!Isolation} backend's grant protocol —
    a grant-all IA32_PKRS under PKS, a CR0.WP clear under the WP and TME-MK
    backends — switches to a per-core secure stack, runs the requested
    service, then revokes permissions and returns. The stack switch is
    charged in the EMC round-trip cycles; the secure stack's contents are
    the gate's saved grants. Interrupts arriving mid-EMC are wrapped by the
    #INT gate, which pushes the granted value on that stack and revokes it
    before the OS handler runs. *)

type t

val create : cpu:Hw.Cpu.t -> code_base:int -> backend:Isolation.t -> unit -> t
(** Assemble the monitor's gate code for [code_base]; the single endbr64
    sits at the entry gate, offset 0. [backend] supplies the grant
    protocol. The listing is run once through {!Hw.Icode} as a self-check
    (it must decode and retire every instruction; [Failure] otherwise); no
    EMC round trip runs it again. {!Monitor.install} writes the bytes into
    the monitor frame behind [code_base]. *)

val backend : t -> Isolation.t

val entry_point : t -> int
val code_bytes : t -> bytes
(** A copy of the assembled gate code (one endbr64 at offset 0, none
    elsewhere) — measured into MRTD by stage-one boot and written into
    monitor memory at the same time. *)

val matches : t -> Hw.Phys_mem.t -> paddr:int -> bool
(** Whether the bytes at [paddr] equal {!code_bytes}. Compares in place:
    no allocation and no virtual cycles. *)

val retires : t -> int
(** The instructions {!code_bytes} retired when [create] ran it through
    {!Hw.Icode}: the listing's full length, or [create] would have failed. *)

val endbr_at : t -> int -> bool
(** The IBT predicate for monitor code: true only at {!entry_point}. *)

val enter : t -> target:int -> (unit -> 'a) -> 'a
(** Perform one EMC whose indirect-branch target is [target].

    Raises [Fault.Fault (Control_protection _)] if [target] is not the entry
    gate while IBT is on. On the legitimate path: pays the EMC round-trip
    cost, loads the backend's granted value, runs the service, restores the
    caller's grant (even on exception). Nested calls from monitor context
    reuse the already-granted privilege and pay nothing. *)

val call : t -> (unit -> 'a) -> 'a
(** [enter] through the legitimate entry point — what instrumented kernel
    code compiles to. *)

val call1 : t -> ('a -> 'b) -> 'a -> 'b
val call2 : t -> ('a -> 'b -> 'c) -> 'a -> 'b -> 'c
(** [call] specialized to one- and two-argument service bodies: the
    operands are passed through the gate instead of captured, so a
    steady-state privop can reuse one preallocated service function and
    cross the gate without any per-call closure. Semantics (cost, grant
    protocol, events, nesting) are identical to {!call}. *)

val interrupt_during_emc : t -> (unit -> 'a) -> 'a
(** The #INT gate (Fig. 5c right): if an interrupt preempts an EMC, push
    the granted value on the secure stack, revoke monitor permissions
    around the OS handler, then pop and restore it — also when the handler
    raises, before the exception propagates. When no EMC is active, just
    runs the handler. *)

val in_emc : t -> bool

val secure_stack_depth : t -> int
(** Grants currently saved on the secure stack: one per interrupt handler
    running inside an EMC, 0 otherwise. *)

val emc_count : t -> int
val interrupted_count : t -> int
