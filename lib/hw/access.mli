(** The access-check engine: combines paging permissions with SMEP, SMAP,
    CR0.WP and PKS exactly as the Intel SDM orders them. Every simulated
    memory access funnels through {!check}; this is where Erebor's isolation
    is mechanically enforced. *)

type ctx = {
  mutable user_mode : bool;   (** CPL = 3. *)
  mutable wp : bool;          (** CR0.WP. *)
  mutable smep : bool;        (** CR4.SMEP. *)
  mutable smap : bool;        (** CR4.SMAP. *)
  mutable pks : bool;         (** CR4.PKS. *)
  mutable ac : bool;          (** EFLAGS.AC (set by stac, cleared by clac). *)
  mutable pkrs : int;         (** IA32_PKRS, as {!Msr.pkrs_bits} holds it. *)
}
(** Mutable so {!Cpu} can refresh its one cached context in place when an
    input changes, instead of building a new one. *)

type translation = {
  user : bool;        (** U/S ANDed across the walk. *)
  writable : bool;    (** R/W ANDed across the walk. *)
  nx : bool;          (** NX ORed across the walk. *)
  pkey : int;         (** Leaf protection key. *)
}

val check :
  ctx -> kind:Fault.access_kind -> addr:int -> translation -> (unit, Fault.t) result
(** Decide one access. [addr] is only used to describe the fault. *)

val check_bits :
  ctx ->
  kind:Fault.access_kind ->
  addr:int ->
  user:bool -> writable:bool -> nx:bool -> pkey:int ->
  (unit, Fault.t) result
(** Same decision with the translation bits passed unboxed — the form the
    CPU's TLB-hit path uses so a permitted access allocates nothing. *)
