(** The cycle-cost model and the virtual clock.

    All performance results in this reproduction are expressed in *model
    cycles*. The per-operation constants are calibrated against the paper's
    own micro-measurements (Tables 3 and 4, Intel Xeon Platinum 8570): the
    native cost of each privileged operation, the round-trip cost of each
    privilege transition, and the in-monitor service cost of each
    Erebor-Monitor-Call (EMC). Macro results then *emerge* from how many of
    each event a workload triggers. *)

module Cost : sig
  (** {2 Privilege transitions (Table 3), round-trip} *)

  val syscall_roundtrip : int   (** 684 *)
  val emc_roundtrip : int       (** 1224 *)
  val tdcall_roundtrip : int    (** 5276 *)
  val vmcall_roundtrip : int    (** 4031 *)

  (** {2 Native privileged-operation execution (Table 4)} *)

  val pte_write_native : int    (** 23 — native_set_pte *)
  val cr_write_native : int     (** 294 *)
  val msr_write_native : int    (** 364 *)
  val lidt_native : int         (** 260 *)
  val stac_native : int         (** 62 — stac/clac pair *)
  val tdreport_native : int     (** 126806 — report generation dominates *)

  (** {2 In-monitor EMC service costs (validation + execution).
      [emc_roundtrip + service] reproduces Table 4's Erebor column.} *)

  val emc_service_mmu : int     (** 121  -> 1345 total *)
  val emc_service_cr : int      (** 369  -> 1593 total *)
  val emc_service_msr : int     (** 389  -> 1613 total *)
  val emc_service_idt : int     (** 145  -> 1369 total *)
  val emc_service_smap : int    (** 67   -> 1291 total *)
  val emc_service_ghci : int    (** 126857 -> 128081 total *)

  (** {2 General system events} *)

  val page_fault_base : int
  (** Fault delivery + kernel fault-path logic, excluding PTE installs. *)

  val interrupt_delivery : int
  (** Vectoring through the IDT to a handler and iret back. *)

  val context_switch : int
  (** Scheduler switch between tasks (excluding triggering interrupt). *)

  val ve_handling : int
  (** Guest #VE handler logic before the vmcall itself. *)

  val monitor_exit_inspect : int
  (** Erebor's per-sandbox-exit inspection work (Fig. 7 interposition). *)

  val monitor_state_mask : int
  (** Saving, masking and restoring sandbox register state at interrupts. *)

  val spinlock_acquire : int
  (** Uncontended LibOS userspace spinlock acquire/release pair. *)

  val libos_service : int
  (** LibOS in-process emulation of one runtime service call. *)

  val usercopy_per_page : int
  (** copy_from/to_user per 4KiB page, excluding stac/clac. *)

  val tme_key_load : int
  (** TME-MK backend: key-schedule selection per keyed TLB fill. Charged
      only when a {!Tme.t} is attached to the CPU. *)
end

type clock
(** Monotonic virtual clock, shared by every simulated component. *)

val clock : unit -> clock
val now : clock -> int
val advance : clock -> int -> unit
(** [advance c n] moves time forward by [n >= 0] cycles. *)

val to_seconds : int -> float
(** Cycles to seconds at the nominal core frequency, 2.1 GHz (the paper's
    Xeon 8570). *)
