(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (§9) from the simulator, printing paper values alongside for
   fidelity checks, and gates them (check). The simulator's own host time
   is measured by perf/ (sh perf/run.sh) and its allocation by the ledger
   below.

   Parsing is the declarative Workloads.Cli subcommand framework (shared
   with bin/erebor_sim): every target is a subcommand carrying its own
   flag list, "all" is the default when only flags are given, and an
   unknown flag prints the usage of exactly the target it occurred under.

   Usage:
     bench/main.exe                 # everything (same as "all"); writes the
                                    # run record to BENCH_sim.new.json
     bench/main.exe table3|table4|fig8|fig9|table6|fig10|memshare|tables-qual
     bench/main.exe density         # per-backend overhead + 1->256 tenants/CVM
                                    # (--backend / --tenants narrow the matrix)
     bench/main.exe attrib          # per-domain/per-phase cycle attribution
     bench/main.exe check           # THE gate (@ci): anchors vs BENCH_sim.json,
                                    # sink-transparency law, journal,
                                    # density must-deny, attribution
                                    # (--full: full scale and every Fig. 9 row;
                                    #  --from-journal FILE: verify a recording)
   Common flags:
     --jobs N         domain-pool width for machine fan-out
                      (default: Domain.recommended_domain_count)
     --scale F        multiply simulated workload durations by F (default 1.0)
     --baseline PATH  baseline file for check (default BENCH_sim.json)  *)

module C = Workloads.Cli
module G = Workloads.Bench_check

(* Parsed flags; set once in the driver before any experiment runs. *)
let jobs_arg : int option ref = ref None
let scale_arg = ref 1.0
let backend_arg : Erebor.Isolation.kind option ref = ref None
let tenants_arg : int option ref = ref None

let line width = print_endline (String.make width '-')

let header title =
  Printf.printf "\n%s\n" title;
  line (String.length title)

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

let print_table3 () =
  header "Table 3: privilege-transition round-trip costs (CPU cycles)";
  Printf.printf "%-10s %10s %8s   %10s\n" "Call" "#Cycles" "Times" "Paper";
  List.iter
    (fun (r : Workloads.Eval.transition_row) ->
      Printf.printf "%-10s %10d %7.2fx   %10d\n" r.transition r.cycles r.ratio_vs_emc
        r.paper_cycles)
    (Workloads.Eval.table3 ())

(* ------------------------------------------------------------------ *)
(* Table 4                                                             *)
(* ------------------------------------------------------------------ *)

let print_table4 () =
  header "Table 4: privileged-operation costs, Native vs Erebor (CPU cycles)";
  Printf.printf "%-6s %10s %10s %9s   %s\n" "Op" "Native" "Erebor" "Slowdown"
    "Paper (native -> erebor)";
  List.iter
    (fun (r : Workloads.Eval.privop_row) ->
      Printf.printf "%-6s %10d %10d %8.2fx   %d -> %d\n" r.op r.native_cycles
        r.erebor_cycles r.slowdown r.paper_native r.paper_erebor)
    (Workloads.Eval.table4 ())

(* ------------------------------------------------------------------ *)
(* Fig. 8                                                              *)
(* ------------------------------------------------------------------ *)

let print_fig8 () =
  header "Figure 8: LMBench overheads (non-sandboxed system benchmarks)";
  Printf.printf "%-10s %12s %12s %8s %10s\n" "Bench" "Native(cy)" "Erebor(cy)" "Ratio"
    "EMC/s";
  List.iter
    (fun (r : Workloads.Eval.lmbench_row) ->
      Printf.printf "%-10s %12.0f %12.0f %7.2fx %9.2fM\n" r.bench r.native_avg
        r.erebor_avg r.ratio (r.emc_per_sec /. 1e6))
    (Workloads.Eval.fig8 ?jobs:!jobs_arg ());
  Printf.printf "(paper: pagefault is the worst case at 3.8x Native)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 9 + Table 6                                                    *)
(* ------------------------------------------------------------------ *)

(* Shared by fig9, table6 and the run record; forced after the flags are
   read. *)
let fig9_rows = lazy (Workloads.Eval.fig9 ?jobs:!jobs_arg ())

let print_fig9 () =
  header "Figure 9: runtime overhead of real-world workloads (% over Native)";
  let rows = Lazy.force fig9_rows in
  Printf.printf "%-10s" "Program";
  List.iter
    (fun s -> Printf.printf " %12s" (Sim.Config.name s))
    (List.tl Sim.Config.all);
  print_newline ();
  List.iter
    (fun (program, _) ->
      Printf.printf "%-10s" program;
      List.iter
        (fun setting ->
          match
            List.find_opt
              (fun (r : Workloads.Eval.program_row) ->
                r.program = program && r.setting = setting)
              rows
          with
          | Some r -> Printf.printf " %11.2f%%" r.overhead_pct
          | None -> Printf.printf " %12s" "-")
        (List.tl Sim.Config.all);
      print_newline ())
    Workloads.Eval.all_programs;
  Printf.printf "%-10s" "geomean";
  List.iter
    (fun setting ->
      Printf.printf " %11.2f%%" (Workloads.Eval.geomean_overhead rows setting))
    (List.tl Sim.Config.all);
  print_newline ();
  Printf.printf
    "(paper: geomean 8.1%% full Erebor; 1.7%% LibOS-only; 3.6%% / 3.9%% MMU / Exit\n\
    \ ablations; llama.cpp worst at 13.15%%; full range 4.5%%-13.2%%)\n"

let print_table6 () =
  header "Table 6: program execution statistics under full Erebor";
  let rows = Workloads.Eval.table6 (Lazy.force fig9_rows) in
  Printf.printf "%-10s %8s %8s %8s %8s %9s %8s %7s %7s %9s\n" "Program" "#PF/s"
    "#Timer/s" "#VE/s" "Total/s" "EMC/s" "Time(s)" "Conf." "Com." "Init.ovh";
  List.iter
    (fun (r : Workloads.Eval.program_row) ->
      Printf.printf "%-10s %8.1f %8.1f %8.1f %8.1f %8.1fk %8.2f %6dM %6dM %8.1f%%\n"
        r.program r.pf_rate r.timer_rate r.ve_rate
        (r.pf_rate +. r.timer_rate +. r.ve_rate)
        (r.emc_rate /. 1000.0) r.time_seconds r.confined_mb r.common_mb
        r.init_overhead_pct)
    rows;
  Printf.printf
    "(paper llama.cpp row: 1.8k / 0.9k / 1.7k / 4.4k exits, 46.9k EMC/s, 52.85s,\n\
    \ 501M confined, 4096M common, 52.7%% init overhead)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 10                                                             *)
(* ------------------------------------------------------------------ *)

let print_fig10 () =
  header "Figure 10: relative throughput of background servers (Erebor / Native)";
  let rows = Workloads.Eval.fig10 ?jobs:!jobs_arg () in
  List.iter
    (fun server ->
      let mine = List.filter (fun (r : Workloads.Eval.netserve_row) -> r.server = server) rows in
      Printf.printf "%-8s:" server;
      List.iter
        (fun (r : Workloads.Eval.netserve_row) ->
          let label =
            if r.file_kb >= 1024 then Printf.sprintf "%dMB" (r.file_kb / 1024)
            else Printf.sprintf "%dKB" r.file_kb
          in
          Printf.printf " %s=%.2f" label r.relative)
        mine;
      let avg =
        List.fold_left (fun acc (r : Workloads.Eval.netserve_row) -> acc +. r.relative) 0.0 mine
        /. float_of_int (List.length mine)
      in
      Printf.printf "  (avg reduction %.1f%%)\n" (100.0 *. (1.0 -. avg)))
    [ "OpenSSH"; "Nginx" ];
  Printf.printf
    "(paper: OpenSSH -8.2%% avg / -18%% max on small files; Nginx -5.1%% avg /\n\
    \ -17.6%% max; <5%% for large files)\n"

(* ------------------------------------------------------------------ *)
(* Memory sharing (§9.2)                                               *)
(* ------------------------------------------------------------------ *)

let print_memshare () =
  header "Common-memory sharing (§9.2): llama.cpp fleet over one shared model";
  Printf.printf "%-10s %16s %18s %9s\n" "Sandboxes" "Shared (frames)" "Replicated (frames)"
    "Saving";
  List.iter
    (fun (r : Workloads.Eval.memshare_row) ->
      Printf.printf "%-10d %16d %18d %8.1f%%\n" r.sandboxes r.shared_frames
        r.replicated_frames r.saving_pct)
    (Workloads.Eval.memshare ?jobs:!jobs_arg ());
  Printf.printf
    "(paper: 8 llama.cpp containers drop from ~36GB replicated to ~8GB shared;\n\
    \ memory consumption cut by up to 89.1%%)\n"

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices in DESIGN.md                        *)
(* ------------------------------------------------------------------ *)

let print_ablations () =
  header "Ablation: batched MMU updates (the optimization §9.1 points at)";
  let declare ~batched =
    let m =
      Sim.Machine.create ~frames:65536 ~cma_frames:16384 ~setting:Sim.Config.Erebor_full ()
    in
    let mgr = Option.get (Sim.Machine.manager m) in
    let kern = Sim.Machine.kern m in
    Kernel.set_mmu_batching kern batched;
    let pages = 8192 in
    let sb =
      Result.get_ok
        (Erebor.Sandbox.create_sandbox mgr ~name:"ablate" ~confined_budget:(pages * 4096))
    in
    let before = Sim.Machine.snapshot m in
    ignore (Result.get_ok (Erebor.Sandbox.declare_confined mgr sb ~len:(pages * 4096)));
    let after = Sim.Machine.snapshot m in
    let d = Sim.Stats.diff ~before ~after in
    (d.Sim.Stats.cycles, d.Sim.Stats.emc_mmu)
  in
  let unbatched_cycles, unbatched_emc = declare ~batched:false in
  let batched_cycles, batched_emc = declare ~batched:true in
  Printf.printf "declare+pin 32MiB confined: unbatched %d cycles (%d MMU EMCs)\n"
    unbatched_cycles unbatched_emc;
  Printf.printf "                            batched   %d cycles (%d MMU EMCs)\n"
    batched_cycles batched_emc;
  Printf.printf "                            saving    %.1f%%\n"
    (100.0 *. (1.0 -. (float_of_int batched_cycles /. float_of_int unbatched_cycles)));

  header "Ablation: warm-start pools (the amortization §9.2 points at)";
  let m =
    Sim.Machine.create ~frames:65536 ~cma_frames:16384 ~setting:Sim.Config.Erebor_full ()
  in
  let mgr = Option.get (Sim.Machine.manager m) in
  let clock = Sim.Machine.clock m in
  let t0 = Hw.Cycles.now clock in
  let pool =
    Result.get_ok
      (Sim.Pool.create ~mgr ~name_prefix:"fleet" ~heap_bytes:(2048 * 4096) ~threads:8
         ~size:1 ())
  in
  let prewarm_cost = Hw.Cycles.now clock - t0 in
  let t1 = Hw.Cycles.now clock in
  ignore (Result.get_ok (Sim.Pool.acquire pool));
  let warm_cost = Hw.Cycles.now clock - t1 in
  let t2 = Hw.Cycles.now clock in
  ignore (Result.get_ok (Sim.Pool.acquire pool));
  let cold_cost = Hw.Cycles.now clock - t2 in
  Printf.printf "8MiB-heap sandbox: cold boot %d cycles; warm acquire %d cycles\n"
    cold_cost warm_cost;
  Printf.printf "(prewarm paid %d cycles off the request path)\n" prewarm_cost;

  header "Ablation: side-channel mitigations (§11) on drugbank";
  let run_with policy_name policy =
    let m =
      Sim.Machine.create ~frames:262144 ~cma_frames:65536 ~setting:Sim.Config.Erebor_full ()
    in
    (match policy with
    | Some p -> Erebor.Sandbox.set_mitigations (Option.get (Sim.Machine.manager m)) p
    | None -> ());
    let r = Sim.Machine.run m (Workloads.Retrieval.spec ()) in
    Printf.printf "%-10s %12d run cycles" policy_name r.Sim.Machine.run_cycles;
    (match Erebor.Sandbox.mitigation_stats (Option.get (Sim.Machine.manager m)) with
    | Some (stalls, stall_cycles, flushes) ->
        Printf.printf "  (stalls=%d stall-cycles=%d flushes=%d)" stalls stall_cycles flushes
    | None -> ());
    print_newline ();
    r.Sim.Machine.run_cycles
  in
  let base = run_with "none" None in
  let hardened = run_with "paranoid" (Some Erebor.Mitigations.paranoid) in
  Printf.printf "mitigation overhead: %.2f%%\n"
    (100.0 *. ((float_of_int hardened /. float_of_int base) -. 1.0))

(* ------------------------------------------------------------------ *)
(* Multi-tenant density (pluggable isolation backends)                 *)
(* ------------------------------------------------------------------ *)

let print_density () =
  let backends =
    match !backend_arg with
    | Some b -> [ b ]
    | None -> [ Erebor.Isolation.Pks; Erebor.Isolation.Tme_mk ]
  in
  let tenant_counts = Option.map (fun n -> [ n ]) !tenants_arg in
  header "Per-backend overhead on the Fig. 9 workloads (% over Native)";
  Printf.printf "%-10s %-8s %14s %14s %9s\n" "Program" "Backend" "Native(cy)"
    "Erebor(cy)" "Overhead";
  List.iter
    (fun (r : Workloads.Density.backend_row) ->
      Printf.printf "%-10s %-8s %14d %14d %8.2f%%\n" r.bprogram
        (Erebor.Isolation.kind_name r.bbackend)
        r.native_cycles r.backend_cycles r.boverhead_pct)
    (Workloads.Density.backend_overhead ?jobs:!jobs_arg ~backends ());
  header "Sandboxes-per-CVM scaling (memory, EMC interference, tenant p99)";
  Printf.printf "%-8s %7s %9s %7s %7s %10s %8s %9s %12s %5s\n" "Backend"
    "Tenants" "Conf.fr" "PTP.fr" "Com.fr" "Fr/tenant" "EMC/req" "Interf."
    "Worst p99" "Viol.";
  let rows =
    Workloads.Density.scaling ?jobs:!jobs_arg ~backends ?tenant_counts ()
  in
  List.iter
    (fun (r : Workloads.Density.scale_row) ->
      Printf.printf "%-8s %7d %9d %7d %7d %10.1f %8.1f %8.2f%% %12d %5d\n"
        (Erebor.Isolation.kind_name r.sbackend)
        r.tenants r.confined_frames r.ptp_frames r.common_frames
        r.frames_per_tenant r.emc_per_request r.emc_interference_pct
        r.worst_p99 r.violations)
    rows;
  let total_violations =
    List.fold_left
      (fun acc (r : Workloads.Density.scale_row) -> acc + r.violations)
      0 rows
  in
  Printf.printf
    "(adversarial probe per machine: cross-tenant confined map, TME-MK key-id\n\
    \ forgery, sealed-common writable map — %d attempts not denied)\n"
    total_violations

(* ------------------------------------------------------------------ *)
(* Qualitative tables (1, 2, 7)                                        *)
(* ------------------------------------------------------------------ *)

let print_tables_qual () =
  header "Table 1: CVM data-protection comparison";
  Printf.printf "%-12s %-8s %-4s %-4s %-4s %-10s %-10s\n" "System" "Approach" "AV1" "AV2"
    "AV3" "Paravisor" "Hypervisor";
  List.iter
    (fun (sys, app, a1, a2, a3, pv, hv) ->
      Printf.printf "%-12s %-8s %-4s %-4s %-4s %-10s %-10s\n" sys app a1 a2 a3 pv hv)
    [
      ("Veil", "Enclave", "yes", "no", "no", "changed", "changed");
      ("NestedSGX", "Enclave", "yes", "no", "no", "changed", "changed");
      ("Erebor", "Sandbox", "yes", "yes", "yes", "unchanged", "unchanged");
    ];
  header "Table 2: sensitive privileged instructions delegated to the monitor";
  List.iter
    (fun (s : Erebor.Policy.sensitive) ->
      Printf.printf "%-6s %-16s %s\n"
        (Fmt.str "%a" Erebor.Policy.pp_class s.Erebor.Policy.class_)
        s.Erebor.Policy.mnemonic s.Erebor.Policy.description)
    Erebor.Policy.sensitive_instructions;
  header "Table 7: cross-CVM architectural features";
  Printf.printf "%-5s %-10s %-7s %-8s %-12s %-11s %-9s\n" "Plat" "Registers" "Ctxt"
    "GHCI" "K/U separation" "Prot.key" "HW-CFI";
  List.iter
    (fun (p, r, c, g, k, pk, cfi) ->
      Printf.printf "%-5s %-10s %-7s %-8s %-12s %-11s %-9s\n" p r c g k pk cfi)
    [
      ("TDX", "CR/MSR", "IDT", "tdcall", "SMEP/SMAP", "PKS", "IBT+SST");
      ("SEV", "CR/MSR", "IDT", "vmgexit", "SMEP/SMAP", "page table", "IBT+SST");
      ("CCA", "EL1", "VBAR", "smc", "PXN/PAN", "PIE", "BTI+GCS");
    ]

(* ------------------------------------------------------------------ *)
(* EMC latency histogram (observability subsystem)                     *)
(* ------------------------------------------------------------------ *)

let print_emchist () =
  header "EMC latency histograms: drugbank under full Erebor (log2 buckets, cycles)";
  let obs = Obs.Emitter.create () in
  let hist = Obs.Histogram.attach obs (Obs.Histogram.create ()) in
  let m = Sim.Machine.create ~obs ~setting:Sim.Config.Erebor_full () in
  let spec_fn = List.assoc "drugbank" Workloads.Eval.all_programs in
  ignore (Sim.Machine.run m (spec_fn ()));
  let report kind =
    if Obs.Histogram.count hist kind > 0 then
      Fmt.pr "%a@." Obs.Histogram.pp (hist, kind)
  in
  List.iter report
    [
      Obs.Trace.Emc_entry;
      Obs.Trace.emc_mmu;
      Obs.Trace.emc_cr;
      Obs.Trace.emc_msr;
      Obs.Trace.emc_idt;
      Obs.Trace.emc_smap;
      Obs.Trace.emc_ghci;
    ]

(* ------------------------------------------------------------------ *)
(* Cycle attribution (observability subsystem)                         *)
(* ------------------------------------------------------------------ *)

let print_attrib () =
  header
    "Cycle attribution: domain x phase decomposition (every Fig. 9 program x setting)";
  let rows = Workloads.Eval.attrib ?jobs:!jobs_arg () in
  List.iter
    (fun (r : Workloads.Eval.attrib_row) ->
      let total = float_of_int r.total_cycles in
      Printf.printf "\n%s @ %s  (%d cycles)\n" r.aprogram
        (Sim.Config.name r.asetting) r.total_cycles;
      List.iter
        (fun (domain, phase, cycles) ->
          Printf.printf "  %-8s %-10s %14d  %6.2f%%\n" domain phase cycles
            (100.0 *. float_of_int cycles /. total))
        r.contexts;
      Printf.printf "  %-8s %-10s %14d  %6.2f%%\n" "-" "(outside)"
        r.unattributed_cycles
        (100.0 *. float_of_int r.unattributed_cycles /. total))
    rows;
  Printf.printf
    "\n(every row's contexts + (outside) sum exactly to its total — gated by \
     the attrib/* checks of bench check)\n"

(* ------------------------------------------------------------------ *)
(* The allocation ledger                                               *)
(* ------------------------------------------------------------------ *)

(* The [bench all] targets in run order: the ledger's rows. *)
let targets =
  [
    ("table3", print_table3);
    ("table4", print_table4);
    ("fig8", print_fig8);
    ("fig9", print_fig9);
    ("table6", print_table6);
    ("fig10", print_fig10);
    ("memshare", print_memshare);
    ("ablations", print_ablations);
    ("tables-qual", print_tables_qual);
    ("emchist", print_emchist);
  ]

(* One target's run. A full major cycle first empties the minor heap and
   restarts the major GC's pacing, so a target's promotions depend less on
   what ran before it (they still move by a few percent; the ledger does
   not judge them). [Gc.minor_words] and the major and promoted counts of
   [Gc.counters] are this domain's exact counts ([Gc.quick_stat] only
   advances at collections, and [Gc.counters]' minor count undercounts the
   live minor heap); in a serial run no other domain allocates. *)
let run_target (target, f) =
  Gc.full_major ();
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall_s = Unix.gettimeofday () -. t0 in
  let _, promoted1, major1 = Gc.counters () in
  let minor1 = Gc.minor_words () in
  {
    G.target;
    wall_s;
    minor_words = minor1 -. minor0;
    major_words = major1 -. major0;
    promoted_words = promoted1 -. promoted0;
  }

(* Runs [f] with stdout sent to /dev/null. *)
let muted f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null Unix.stdout;
  Unix.close null;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

(* The ledger section of the gate: the targets run serially with their
   output muted, before any other section, so each starts from the process
   state it has under [bench all] and its words match the serial suite's
   exactly. Smoke mode runs only the anchor tables. *)
let ledger_gate ~baseline ~smoke =
  let run =
    if smoke then List.filter (fun (n, _) -> n = "table3" || n = "table4") targets
    else targets
  in
  let jobs = !jobs_arg in
  jobs_arg := Some 1;
  let costs =
    Fun.protect
      ~finally:(fun () -> jobs_arg := jobs)
      (fun () -> muted (fun () -> List.map run_target run))
  in
  match G.read_baseline baseline with
  | Error e -> [ G.chk "ledger" false e ]
  | Ok json -> G.ledger_checks ~profile:Build_profile.name json costs

(* [ledger-diff A B]: two [bench all --jobs 1] records through the gate's
   own ledger rule, B judged against A. Exits 1 if a row fails, like
   [check]; the last line counts the word counts that moved at all. *)
let run_ledger_diff p =
  let read path =
    match G.read_baseline path with Ok json -> json | Error e -> C.fail p e
  in
  match C.pos p with
  | [ a; b ] ->
      let v = G.ledger_diff (read a) (read b) in
      Format.printf "%a" G.pp_verdict v;
      Format.printf "%a" G.pp_mismatch_table v;
      let moved =
        List.filter
          (fun (c : G.check) -> c.name <> "ledger/profile" && c.old_value <> c.new_value)
          v
      in
      Printf.printf "ledger: %d of %d checks moved, %d failed\n" (List.length moved)
        (List.length v)
        (List.length (G.failures v));
      if not (G.pass v) then exit 1
  | _ -> C.fail p "two records expected: A.json B.json"

(* ------------------------------------------------------------------ *)
(* Regression gate against the committed BENCH_sim.json                *)
(* ------------------------------------------------------------------ *)

(* One verdict, one report: every check's line, then — if anything failed —
   one old/new table of all the failures and the command that reproduces
   the run. *)
let run_check ~baseline ~full ~from_journal () =
  let section name v =
    Printf.printf "%s\n" name;
    Format.printf "%a" G.pp_verdict v;
    v
  in
  let verdict =
    match from_journal with
    | Some journal ->
        header
          (Printf.sprintf "Regression gate: recording %s vs %s" journal
             baseline);
        section "journal"
          (match G.check_journal_file ~journal ~path:baseline () with
          | Ok v -> v
          | Error e -> [ G.chk "baseline" false e ])
    | None ->
        header
          (Printf.sprintf "Regression gate: current %s build vs %s%s"
             Build_profile.name baseline
             (if full then " (full scale)" else ""));
        List.concat_map
          (fun (name, gate) -> section name (gate ~smoke:(not full)))
          (("ledger", ledger_gate ~baseline) :: G.gates ~baseline ~jobs:!jobs_arg)
  in
  match G.failures verdict with
  | [] -> Printf.printf "PASS: %d checks\n" (List.length verdict)
  | fails ->
      Format.printf "%a" G.pp_mismatch_table verdict;
      Printf.printf "FAIL: %d of %d checks failed against %s\n"
        (List.length fails) (List.length verdict) baseline;
      Printf.printf "repro: dune exec bench/main.exe -- check%s%s --baseline %s\n"
        (if full then " --full" else "")
        (match from_journal with Some j -> " --from-journal " ^ j | None -> "")
        baseline;
      (* A ledger target's words are reproduced by the serial suite run,
         which records them in BENCH_sim.new.json. *)
      List.iter
        (fun target ->
          Printf.printf
            "repro: dune exec bench/main.exe -- all --jobs 1  # %s: \
             targets[name=%s] in BENCH_sim.new.json\n"
            target target)
        (List.sort_uniq compare
           (List.filter_map
              (fun (c : G.check) ->
                match String.split_on_char '/' c.G.name with
                | [ "ledger"; rest ] when rest <> "profile" ->
                    Some (List.hd (String.split_on_char '.' rest))
                | _ -> None)
              fails));
      exit 1

(* ------------------------------------------------------------------ *)
(* BENCH_sim.json — machine-readable run record for regression diffing *)
(* ------------------------------------------------------------------ *)

(* Peak resident set in KiB, from the kernel's high-water mark. *)
let peak_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun line ->
          try Scanf.sscanf line "VmHWM: %d kB" Option.some
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
        (String.split_on_char '\n' status)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let all () =
  let t_start = Unix.gettimeofday () in
  let costs = List.map run_target targets in
  let host =
    {
      G.profile = Build_profile.name;
      jobs = (match !jobs_arg with Some j -> j | None -> Sim.Runner.default_jobs ());
      scale = !scale_arg;
      total_wall_s = Unix.gettimeofday () -. t_start;
      peak_rss_kb = peak_rss_kb ();
      gc = Gc.quick_stat ();
      costs;
    }
  in
  (* The committed BENCH_sim.json is the gate's baseline and never changes
     under a measurement run; re-baselining is an explicit
     [mv BENCH_sim.new.json BENCH_sim.json]. *)
  let path = "BENCH_sim.new.json" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (G.record (Some host) ~table3:(Workloads.Eval.table3 ())
           ~table4:(Workloads.Eval.table4 ()) ~fig9:(Lazy.force fig9_rows)));
  Printf.eprintf "[bench] wrote %s\n%!" path

(* Shared flags; each target lists only the ones it reads, so an unknown
   flag fails with the usage of exactly that target. *)
let jobs_flag =
  C.flag ~docv:"N" [ "--jobs"; "-j" ]
    "Domain-pool width for machine fan-out (default: \
     Domain.recommended_domain_count)."

let scale_flag =
  C.flag ~docv:"F" [ "--scale" ]
    "Multiply simulated workload durations by F (default 1.0)."

let backend_flag =
  C.flag ~docv:"KIND" [ "--backend" ]
    "Isolation backend to measure (pks, wp, tmemk; default: both \
     calibrated backends)."

let tenants_flag =
  C.flag ~docv:"N" [ "--tenants" ] "Single tenant count for the scaling matrix."

let baseline_flag =
  C.flag ~docv:"PATH" [ "--baseline" ]
    "Baseline suite record to gate against (default BENCH_sim.json)."

let full_flag =
  C.flag [ "--full" ] "Full scale: every Fig. 9 row and every gate at size."

let from_journal_flag =
  C.flag ~docv:"FILE" [ "--from-journal" ]
    "Verify the baseline's Fig. 9 anchors against a flight recording \
     written by erebor-sim run --record instead of re-running the build."

(* Fold the shared flags into the refs the experiment printers read. *)
let setup p =
  jobs_arg :=
    (match C.str p jobs_flag with
    | None -> None
    | Some _ -> Some (C.int_of p ~min:1 ~default:1 jobs_flag));
  (match C.str p scale_flag with
  | None -> ()
  | Some _ ->
      let f = C.float_of p ~default:1.0 scale_flag in
      if f <= 0.0 then C.fail p "--scale: positive number expected"
      else begin
        scale_arg := f;
        Workloads.Workload.set_scale f
      end);
  (match C.str p backend_flag with
  | None -> backend_arg := None
  | Some s -> (
      match Erebor.Isolation.kind_of_name s with
      | Ok b -> backend_arg := Some b
      | Error e -> C.fail p ("--backend: " ^ e)));
  tenants_arg :=
    (match C.str p tenants_flag with
    | None -> None
    | Some _ -> Some (C.int_of p ~min:1 ~default:1 tenants_flag))

let exp_flags = [ jobs_flag; scale_flag ]

let target ?(flags = exp_flags) name doc f =
  C.cmd ~name ~doc ~flags (fun p ->
      setup p;
      f p)

let baseline_of p = Option.value (C.str p baseline_flag) ~default:"BENCH_sim.json"

let () =
  C.run ~prog:"bench" ~default:"all"
    ~doc:"Regenerate the paper's evaluation (§9) from the simulator"
    [
      target "all" "Every table and figure, then write BENCH_sim.new.json"
        (fun _ -> all ());
      target "table3" "Privilege-transition round-trip costs" (fun _ ->
          print_table3 ());
      target "table4" "Privileged-operation costs" (fun _ -> print_table4 ());
      target "fig8" "LMBench overheads" (fun _ -> print_fig8 ());
      target "fig9" "Real-world workload overheads" (fun _ -> print_fig9 ());
      target "table6" "Program execution statistics" (fun _ -> print_table6 ());
      target "fig10" "Background-server throughput" (fun _ -> print_fig10 ());
      target "memshare" "Common-memory sharing (§9.2)" (fun _ ->
          print_memshare ());
      target "density"
        ~flags:(exp_flags @ [ backend_flag; tenants_flag ])
        "Per-backend overhead + sandboxes-per-CVM scaling" (fun _ ->
          print_density ());
      target "ablations" "Design-choice ablations (DESIGN.md)" (fun _ ->
          print_ablations ());
      target "tables-qual" "Qualitative tables (1, 2, 7)" (fun _ ->
          print_tables_qual ());
      target "emchist" "EMC latency histograms" (fun _ -> print_emchist ());
      target "attrib" "Domain x phase cycle attribution" (fun _ ->
          print_attrib ());
      target "check"
        ~flags:[ jobs_flag; baseline_flag; full_flag; from_journal_flag ]
        "The gate: every bench contract vs the committed BENCH_sim.json"
        (fun p ->
          run_check ~baseline:(baseline_of p) ~full:(C.has p full_flag)
            ~from_journal:(C.str p from_journal_flag) ());
      C.cmd ~name:"ledger-diff"
        ~doc:"Judge record B's allocation ledger against record A's (A.json B.json)"
        run_ledger_diff;
    ]
