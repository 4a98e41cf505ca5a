(* The benchmark's metric dictionary. BENCHMARK.json at the repository root
   mirrors these tables (a test keeps the two in step). *)

type e2e = { name : string; unit_ : string; better : Stats.better; bound : float }

(* Every workload reports all of these, measured with tracing off. The
   bound is the share of the parent's median by which a metric may worsen
   before a change counts as a regression. *)
let end_to_end =
  [
    { name = "pass_s_p50"; unit_ = "s"; better = Stats.Lower; bound = 0.25 };
    { name = "item_ms_p50"; unit_ = "ms"; better = Stats.Lower; bound = 0.25 };
    { name = "alloc_mwords_per_pass"; unit_ = "Mwords"; better = Stats.Lower; bound = 0.01 };
    { name = "major_mwords_per_pass"; unit_ = "Mwords"; better = Stats.Lower; bound = 0.05 };
    { name = "peak_rss_mb"; unit_ = "MB"; better = Stats.Lower; bound = 0.20 };
    { name = "setup_s"; unit_ = "s"; better = Stats.Lower; bound = 0.25 };
  ]

(* Host-time layers, named after the library that owns the code. Every
   simulator span phase maps to one layer; the last three are the
   benchmark's own spans around the calls it makes, and time inside an item
   that no span covers. *)
let phase_layer (p : Obs.Trace.phase) =
  match p with
  | Boot -> "sim.boot"
  | Scan -> "erebor.scan"
  | Attest -> "crypto.attest"
  | Run -> "workloads.body"
  | Emc_gate -> "erebor.gate"
  | Svc_mmu -> "erebor.mmu_guard"
  | Svc_cr | Svc_msr | Svc_idt | Svc_smap | Svc_ghci -> "erebor.privop"
  | Ve_handler -> "tdx.ve"
  | Pf_handler -> "kernel.pf"
  | Timer_handler -> "kernel.timer"
  | Syscall_dispatch -> "kernel.syscall"
  | Channel_crypto -> "crypto.channel"
  | Scheduler -> "kernel.sched"
  | Exit_interpose -> "erebor.interpose"

let span_layers =
  List.sort_uniq compare (List.map phase_layer Obs.Trace.all_phases)

let bench_layers = [ "sim.create"; "sim.run"; "bench.outside" ]

(* Event counts per pass, read from the traced machines' event streams. *)
let counted_kinds : (string * Obs.Trace.kind list) list =
  Obs.Trace.
    [
      ("count.emc", [ Emc_entry ]);
      ("count.emc_mmu", [ emc_mmu ]);
      ("count.syscall", [ Syscall ]);
      ("count.page_fault", [ Page_fault ]);
      ("count.timer_irq", [ Timer_irq ]);
      ("count.context_switch", [ Context_switch ]);
      ("count.tlb_fill", [ Tlb_fill ]);
      ("count.ve_exit", [ Ve_exit ]);
      ("count.tdcall", [ Tdcall ]);
    ]

let unit_rows =
  [
    "hw.translate"; "hw.icode_run"; "erebor.gate_call"; "erebor.write_pte";
    "kernel.getpid"; "tdx.tdcall"; "erebor.channel_4k"; "crypto.sha256_1k";
    "crypto.chacha20_1k"; "obs.journal_record"; "obs.sketch_record";
    "obs.window_record";
  ]

let eval_calls = [ "table3"; "table4"; "fig8"; "fig9"; "fig10"; "memshare" ]

(* (name, unit) of every per-layer metric, in report order. Each reads
   better lower, except [higher_per_layer]. *)
let per_layer =
  List.concat_map
    (fun l -> [ (l ^ ".self_ms", "ms"); (l ^ ".spans", "count") ])
    span_layers
  @ List.map (fun l -> (l ^ ".self_ms", "ms")) bench_layers
  @ [
      ("count.events", "count");
      ("count.sim_gcycles", "Gcycles");
      ("count.channel_bytes", "bytes");
    ]
  @ List.map (fun (n, _) -> (n, "count")) counted_kinds
  @ [ ("sim.host_ns_per_event", "ns"); ("hw.icode.hit_ratio", "ratio") ]
  @ List.concat_map
      (fun r -> [ ("unit." ^ r ^ ".ns", "ns"); ("unit." ^ r ^ ".words", "words") ])
      unit_rows
  @ List.map (fun c -> ("eval." ^ c ^ "_ms", "ms")) eval_calls
  @ [ ("trace.overhead_pct", "%"); ("trace.stamp_ns", "ns"); ("host.speed_loop_ms", "ms") ]

let higher_per_layer = [ "hw.icode.hit_ratio" ]
