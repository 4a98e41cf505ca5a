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
}

let zero =
  { cycles = 0; seconds = 0.0; page_faults = 0; timer_irqs = 0; ve_exits = 0;
    syscalls = 0; emc_total = 0; emc_mmu = 0; emc_cr = 0; emc_msr = 0;
    emc_idt = 0; emc_smap = 0; emc_ghci = 0; context_switches = 0;
    mmu_denies = 0 }

let diff ~before ~after =
  {
    cycles = after.cycles - before.cycles;
    seconds = after.seconds -. before.seconds;
    page_faults = after.page_faults - before.page_faults;
    timer_irqs = after.timer_irqs - before.timer_irqs;
    ve_exits = after.ve_exits - before.ve_exits;
    syscalls = after.syscalls - before.syscalls;
    emc_total = after.emc_total - before.emc_total;
    emc_mmu = after.emc_mmu - before.emc_mmu;
    emc_cr = after.emc_cr - before.emc_cr;
    emc_msr = after.emc_msr - before.emc_msr;
    emc_idt = after.emc_idt - before.emc_idt;
    emc_smap = after.emc_smap - before.emc_smap;
    emc_ghci = after.emc_ghci - before.emc_ghci;
    context_switches = after.context_switches - before.context_switches;
    mmu_denies = after.mmu_denies - before.mmu_denies;
  }

(* Per-sandbox exit accounting: one row per tenant, so Table 6's exit
   columns stay attributable when a machine hosts N > 1 sandboxes. Derived
   from [Sandbox.exit_stats_all]; additive to [snapshot], which remains the
   machine-wide aggregate. *)
type sandbox_row = {
  sandbox_id : int;
  sandbox_name : string;
  sb_page_faults : int;
  sb_timer_irqs : int;
  sb_ve_exits : int;
}

let sandbox_row_of (sandbox_id, sandbox_name, (pf, timer, ve)) =
  { sandbox_id; sandbox_name; sb_page_faults = pf; sb_timer_irqs = timer;
    sb_ve_exits = ve }

let pp_sandbox_row fmt r =
  Fmt.pf fmt "sb%d %-16s #PF=%d #Timer=%d #VE=%d" r.sandbox_id r.sandbox_name
    r.sb_page_faults r.sb_timer_irqs r.sb_ve_exits

let per_second s count = if s.seconds <= 0.0 then 0.0 else count /. s.seconds

let pf_rate s = per_second s (float_of_int s.page_faults)
let timer_rate s = per_second s (float_of_int s.timer_irqs)
let ve_rate s = per_second s (float_of_int s.ve_exits)
let emc_rate s = per_second s (float_of_int s.emc_total)

let pp fmt s =
  Fmt.pf fmt
    "%.2fs  #PF=%.1f/s #Timer=%.1f/s #VE=%.1f/s EMC=%.1fk/s syscalls=%d ctxsw=%d denies=%d"
    s.seconds (pf_rate s) (timer_rate s) (ve_rate s)
    (emc_rate s /. 1000.0)
    s.syscalls s.context_switches s.mmu_denies
