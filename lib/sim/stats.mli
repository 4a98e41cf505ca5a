(** Run statistics in the shape the paper reports (Table 6, Fig. 8–10):
    per-second exit rates, EMC rate, and virtual execution time. *)

type snapshot = {
  cycles : int;
  seconds : float;
  page_faults : int;
  timer_irqs : int;
  ve_exits : int;
  syscalls : int;
  emc_total : int;
  emc_mmu : int;
  emc_cr : int;
  emc_msr : int;
  emc_idt : int;
  emc_smap : int;
  emc_ghci : int;
  context_switches : int;
  mmu_denies : int;
      (** MMU-guard policy denials — lets security tests assert exact
          counts (C2–C4). *)
}

val zero : snapshot
val diff : before:snapshot -> after:snapshot -> snapshot

type sandbox_row = {
  sandbox_id : int;
  sandbox_name : string;
  sb_page_faults : int;
  sb_timer_irqs : int;
  sb_ve_exits : int;
}
(** Per-sandbox exit accounting — with N tenants per CVM the aggregate
    {!snapshot} no longer attributes exits, so Table 6 columns come from
    these rows. *)

val sandbox_row_of : int * string * (int * int * int) -> sandbox_row
(** Lift one [Sandbox.exit_stats_all] row. *)

val pp_sandbox_row : Format.formatter -> sandbox_row -> unit

val pf_rate : snapshot -> float
val timer_rate : snapshot -> float
val ve_rate : snapshot -> float

val emc_rate : snapshot -> float

val pp : Format.formatter -> snapshot -> unit
