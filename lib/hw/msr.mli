(** Per-core model-specific registers. Only the MSRs Erebor cares about get
    named constants; the file itself stores any index. Writes from user mode
    are rejected by {!Cpu}, not here. *)

type t

(** {2 Architectural MSR indices} *)

val ia32_lstar : int      (** 0xC0000082 — syscall entry point. *)
val ia32_pkrs : int       (** 0x6E1 — supervisor protection-key rights. *)
val ia32_s_cet : int      (** 0x6A2 — supervisor CET controls. *)
val ia32_pl0_ssp : int    (** 0x6A4 — kernel shadow-stack pointer. *)
val ia32_uintr_tt : int   (** 0x985 — user-interrupt target table. *)
val ia32_efer : int       (** 0xC0000080. *)

(** {2 Bits} *)

val s_cet_ibt_bit : int64       (** endbr tracking enable. *)
val s_cet_shstk_bit : int64     (** shadow stack enable. *)
val uintr_tt_valid_bit : int64  (** Target table valid. *)

val create : unit -> t
val read : t -> int -> int64
(** Unwritten MSRs read as zero. *)

val write : t -> int -> int64 -> unit

val pkrs_bits : t -> int
(** IA32_PKRS as an unboxed int — the EMC gate's fast slot. *)

val s_cet_bits : t -> int
(** IA32_S_CET as an unboxed int. *)

val write_pkrs_bits : t -> int -> unit
(** Allocation-free [write t ia32_pkrs]; bumps {!gen} like any write. *)

val gen : t -> int
(** Mutation counter: any MSR write bumps it. {!Cpu} compares it to decide
    whether its cached access-check context (which folds in IA32_PKRS) is
    still valid. *)
