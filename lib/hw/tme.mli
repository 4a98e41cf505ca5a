(** A small model of Intel TME-MK (multi-key total memory encryption) as an
    isolation substrate, after TME-Box: every physical frame carries a key
    tag (0 = the shared TME-global key), page-table entries name the key
    they expect in their upper address bits ({!Pte.keyid}), and the check
    happens when the walker fills a TLB entry — TLB flushes on CR3 switches
    and guarded PTE stores force refills, so fill-time checking is
    equivalent to per-access checking in this single-core model.

    The module is a pure decision engine: {!check} classifies a fill and
    counts, while the CPU layer charges cycles, emits audit records and
    raises the fault. When no [Tme.t] is attached to a CPU (the PKS
    backend), nothing here runs and behaviour is byte-identical to a
    machine without TME. *)

type t

type decision =
  | Plain  (** Untagged frame, untagged PTE — the shared key, no charge. *)
  | Keyed  (** Tagged frame, matching PTE keyid, key is active — charged. *)
  | Wrong_key of int * int
      (** [(pte_keyid, frame_tag)]: the PTE names a key the frame is not
          encrypted under — a forged or stale keyid; integrity fault. *)
  | Inactive_key of int * int
      (** [(frame_tag, active)]: correct keyid but the tenant's key is not
          the active context — e.g. the kernel touching a tenant frame
          through the direct map; integrity fault. *)

val create : frames:int -> t
val tag : t -> pfn:int -> int -> unit
(** Assign a frame's key tag (0 clears). Raises on out-of-range pfn/keyid. *)

val untag : t -> pfn:int -> unit
val tag_of : t -> pfn:int -> int
(** Out-of-range frames read as tag 0. *)

val set_active : t -> int -> unit
(** Program the tenant key context (0 = none); switched on sandbox entry. *)

val check : t -> pfn:int -> pte_keyid:int -> decision
val keyed_fills : t -> int
val faults : t -> int
