(** Pluggable isolation backends.

    The monitor's privilege boundary needs three things from hardware: a
    fast per-core permission switch at the EMC gate, a way to make frames
    (PTPs, kernel text, tenant memory) inaccessible outside monitor
    context, and per-tenant confinement of sandbox memory. The paper's TDX
    prototype builds all three from PKS protection keys; the SEV port (§10)
    substitutes CR0.WP; TME-Box shows the tenant-confinement leg can
    instead ride multi-key memory encryption. This module abstracts the
    mechanism as a backend ({!module-type-S}) chosen at
    [Monitor.install] time, so the rest of the stack — guard policy,
    gate protocol, sandbox lifecycle — is mechanism-agnostic.

    The backends:

    - {!Pks} (default): the gate swaps IA32_PKRS between grant-all and
      normal mode; PTPs and kernel text carry protection keys. Calibrated
      output is byte-identical to the pre-backend code.
    - {!Write_protect}: no PKS exists (SEV), so the gate clears CR0.WP in
      monitor context and protection comes from read-only mappings.
    - {!Tme_mk}: simulated TME-MK — each tenant's confined frames are
      tagged with an encryption key id, leaf PTEs carry the id in their
      upper address bits, and {!Hw.Tme} checks (and charges) the key at
      TLB-fill time. The gate runs the CR0.WP discipline; the per-access
      tenant check moves from the PKRS flip into the walker. *)

type kind = Pks | Write_protect | Tme_mk

val kind_name : kind -> string
(** ["pks"], ["wp"], ["tmemk"] — the [--backend] spelling. *)

val kind_of_name : string -> (kind, string) result

val keyid_of_owner : int -> int
(** The TME-MK key id for sandbox [owner]: nonzero, folded into the
    {!Hw.Pte.keyid_bits}-wide field (key 0 is the shared key). *)

(** Interface every backend implements. Grant values travel as unboxed
    ints ([Gate.enter] runs once per EMC and must not allocate); their
    meaning is backend-private — a PKRS image, a CR0.WP bit. *)
module type S = sig
  type t

  val kind : kind
  val create : cpu:Hw.Cpu.t -> t

  val install : t -> unit
  (** Program the hardware the backend rests on; called once by
      [Monitor.install] from monitor context. *)

  (** {2 Gate grant protocol} *)

  val read_grant : t -> int
  val load_grant : t -> int -> unit
  val granted_value : t -> int
  val revoked_value : t -> int

  (** {2 MMU-guard hooks} *)

  val validate_untrusted : t -> Hw.Pte.t -> (unit, string) result
  (** Screen a kernel-supplied leaf PTE before classification dispatch
      (TME-MK rejects forged key ids here; PKS/WP accept everything). *)

  val seal_confined_leaf : t -> owner:int -> Hw.Pte.t -> Hw.Pte.t
  (** Transform an owner-checked confined leaf before install — identity
      for PKS/WP, key-id stamp for TME-MK. *)

  val tag_confined : t -> pfn:int -> owner:int -> unit
  val untag_confined : t -> pfn:int -> unit

  (** {2 Monitor hooks} *)

  val tenant_enter : t -> int -> unit
  (** A CR3 load was approved: [sid >= 0] enters sandbox [sid]'s address
      space, [-1] any non-sandbox root (a plain int, so the CR3 path
      allocates nothing). TME-MK switches the active tenant key here;
      PKS/WP need nothing. *)
end

type t = B : (module S with type t = 'a) * 'a -> t
(** A backend packed with its state. Pattern-matching the existential and
    the indirect calls below do not allocate. *)

val create : kind -> cpu:Hw.Cpu.t -> t
(** Instantiate (but do not yet {!install}) a backend for this core. *)

val kind : t -> kind
val install : t -> unit
val read_grant : t -> int
val load_grant : t -> int -> unit
val granted_value : t -> int
val revoked_value : t -> int
val validate_untrusted : t -> Hw.Pte.t -> (unit, string) result
val seal_confined_leaf : t -> owner:int -> Hw.Pte.t -> Hw.Pte.t
val tag_confined : t -> pfn:int -> owner:int -> unit
val untag_confined : t -> pfn:int -> unit
val tenant_enter : t -> int -> unit
