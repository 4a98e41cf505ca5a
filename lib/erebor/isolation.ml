(* Pluggable isolation backends: the mechanism behind the monitor's
   privilege boundary, factored out of Gate/Mmu_guard/Monitor so PKS is a
   default rather than an assumption. *)

type kind = Pks | Write_protect | Tme_mk

let kind_name = function
  | Pks -> "pks"
  | Write_protect -> "wp"
  | Tme_mk -> "tmemk"

let kind_of_name = function
  | "pks" -> Ok Pks
  | "wp" | "write-protect" -> Ok Write_protect
  | "tmemk" | "tme-mk" -> Ok Tme_mk
  | s -> Error (Printf.sprintf "unknown isolation backend %S (expected pks|wp|tmemk)" s)

(* Tenant key ids are monitor-assigned from the sandbox id; keyid 0 is the
   shared key, so owners fold into 1..2^keyid_bits-1. *)
let keyid_of_owner owner =
  ((owner - 1) mod ((1 lsl Hw.Pte.keyid_bits) - 1)) + 1

module type S = sig
  type t

  val kind : kind
  val create : cpu:Hw.Cpu.t -> t

  val install : t -> unit
  (** Program the hardware the backend rests on (CR4 bits, MSRs, key
      engine). Called once by [Monitor.install], from monitor context. *)

  (** {2 Gate grant protocol} — unboxed ints; runs once per EMC. *)

  val read_grant : t -> int
  val load_grant : t -> int -> unit
  val granted_value : t -> int
  val revoked_value : t -> int

  (** {2 MMU-guard hooks} *)

  val validate_untrusted : t -> Hw.Pte.t -> (unit, string) result
  (** Screen a kernel-supplied leaf PTE before classification dispatch —
      e.g. reject forged key ids that only the monitor may stamp. *)

  val seal_confined_leaf : t -> owner:int -> Hw.Pte.t -> Hw.Pte.t
  (** Transform an owner-checked confined leaf before install (identity for
      PKS/WP; stamps the tenant key id for TME-MK). *)

  val tag_confined : t -> pfn:int -> owner:int -> unit
  val untag_confined : t -> pfn:int -> unit

  (** {2 Monitor hooks} *)

  val tenant_enter : t -> int -> unit
  (** The monitor observed a CR3 load: [sid >= 0] entering sandbox [sid]'s
      address space, [-1] for any non-sandbox root. *)
end

(* --- PKS: the paper's TDX prototype (§5), the default backend. -------- *)

module Pks_backend : S = struct
  type t = Hw.Cpu.t

  let kind = Pks
  let create ~cpu = cpu

  let install cpu =
    Hw.Cpu.set_cr_bit cpu ~reg:`Cr4 Hw.Cr.cr4_pks true;
    Hw.Cpu.write_msr cpu Hw.Msr.ia32_pkrs Policy.normal_mode_pkrs

  let read_grant cpu = Hw.Msr.pkrs_bits cpu.Hw.Cpu.msr
  let load_grant cpu v = Hw.Msr.write_pkrs_bits cpu.Hw.Cpu.msr v
  let granted_value _ = Int64.to_int Policy.monitor_mode_pkrs
  let revoked_value _ = Int64.to_int Policy.normal_mode_pkrs

  let validate_untrusted _ _ = Ok ()
  let seal_confined_leaf _ ~owner:_ pte = pte
  let tag_confined _ ~pfn:_ ~owner:_ = ()
  let untag_confined _ ~pfn:_ = ()
  let tenant_enter _ _ = ()
end

(* --- CR0.WP: the SEV port (§10), after Nested Kernel. ----------------- *)

module Wp_backend : S = struct
  type t = Hw.Cpu.t

  let kind = Write_protect
  let create ~cpu = cpu

  (* No PKS hardware: protection comes from read-only mappings plus CR0.WP,
     which Monitor.install pins on unconditionally. *)
  let install _ = ()

  let read_grant cpu = if Hw.Cr.wp cpu.Hw.Cpu.cr then 1 else 0
  let load_grant cpu v = Hw.Cr.set_bit cpu.Hw.Cpu.cr ~reg:`Cr0 Hw.Cr.cr0_wp (v = 1)
  let granted_value _ = 0
  let revoked_value _ = 1

  let validate_untrusted _ _ = Ok ()
  let seal_confined_leaf _ ~owner:_ pte = pte
  let tag_confined _ ~pfn:_ ~owner:_ = ()
  let untag_confined _ ~pfn:_ = ()
  let tenant_enter _ _ = ()
end

(* --- TME-MK: per-tenant memory-encryption keys, after TME-Box. -------- *)

module Tme_backend : S = struct
  type t = { cpu : Hw.Cpu.t; tme : Hw.Tme.t }

  let kind = Tme_mk

  let create ~cpu =
    { cpu; tme = Hw.Tme.create ~frames:(Hw.Phys_mem.frames cpu.Hw.Cpu.mem) }

  (* Attach the key engine to the walker; the gate runs the CR0.WP
     discipline since TME-MK platforms need no protection keys. *)
  let install t = t.cpu.Hw.Cpu.tme <- Some t.tme

  let read_grant t = if Hw.Cr.wp t.cpu.Hw.Cpu.cr then 1 else 0
  let load_grant t v = Hw.Cr.set_bit t.cpu.Hw.Cpu.cr ~reg:`Cr0 Hw.Cr.cr0_wp (v = 1)
  let granted_value _ = 0
  let revoked_value _ = 1

  (* Key ids are stamped by the monitor alone; a kernel-crafted PTE that
     names one is a forgery whatever frame it points at. *)
  let validate_untrusted _ pte =
    if Hw.Pte.keyid pte <> 0 then
      Error "pte carries a forged key id (key ids are monitor-assigned)"
    else Ok ()

  let seal_confined_leaf _ ~owner pte = Hw.Pte.set_keyid pte (keyid_of_owner owner)
  let tag_confined t ~pfn ~owner = Hw.Tme.tag t.tme ~pfn (keyid_of_owner owner)
  let untag_confined t ~pfn = Hw.Tme.untag t.tme ~pfn

  let tenant_enter t sid =
    Hw.Tme.set_active t.tme (if sid >= 0 then keyid_of_owner sid else 0)
end

type t = B : (module S with type t = 'a) * 'a -> t

let create kind ~cpu =
  match kind with
  | Pks -> B ((module Pks_backend), Pks_backend.create ~cpu)
  | Write_protect -> B ((module Wp_backend), Wp_backend.create ~cpu)
  | Tme_mk -> B ((module Tme_backend), Tme_backend.create ~cpu)

let kind (B ((module M), _)) = M.kind
let install (B ((module M), st)) = M.install st
let read_grant (B ((module M), st)) = M.read_grant st
let load_grant (B ((module M), st)) v = M.load_grant st v
let granted_value (B ((module M), st)) = M.granted_value st
let revoked_value (B ((module M), st)) = M.revoked_value st
let validate_untrusted (B ((module M), st)) pte = M.validate_untrusted st pte
let seal_confined_leaf (B ((module M), st)) ~owner pte =
  M.seal_confined_leaf st ~owner pte
let tag_confined (B ((module M), st)) ~pfn ~owner = M.tag_confined st ~pfn ~owner
let untag_confined (B ((module M), st)) ~pfn = M.untag_confined st ~pfn
let tenant_enter (B ((module M), st)) sid = M.tenant_enter st sid
