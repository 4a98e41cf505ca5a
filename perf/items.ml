(* The five workloads, item by item, and how one item runs and what it
   produces. An item is one fresh machine plus one run (a session or an
   LMBench loop), or one [Workloads.Eval] call in the paper suite. *)

type kind =
  | Session of {
      program : string;
      spec : unit -> Sim.Machine.spec;
      setting : Sim.Config.setting;
      recorded : bool;
    }
  | Lmbench of { bench : Workloads.Lmbench.bench; setting : Sim.Config.setting }
  | Paper of string

type item = { key : string; kind : kind }

type workload = {
  name : string;
  why : string;
  items : item list;  (** One pass, in canonical order. *)
}

let sessions ~recorded settings =
  List.concat_map
    (fun (program, spec) ->
      List.map
        (fun setting ->
          {
            key = program ^ "@" ^ Sim.Config.name setting;
            kind = Session { program; spec; setting; recorded };
          })
        settings)
    Workloads.Eval.all_programs

let workloads =
  let open Sim.Config in
  [
    {
      name = "monitor-sessions";
      why =
        "Fig. 9 sessions under erebor-mmu and erebor: the EMC gate, Icode \
         listing and MMU-guard service do most of the host work";
      items = sessions ~recorded:false [ Erebor_mmu; Erebor_full ];
    };
    {
      name = "direct-sessions";
      why =
        "the same sessions under native, libos-only and erebor-exit: no \
         privop EMCs, the control for monitor changes";
      items = sessions ~recorded:false [ Native; Libos_only; Erebor_exit ];
    };
    {
      name = "kernel-io";
      why =
        "LMBench loops as normal tasks under native and erebor: short items \
         where machine assembly and the kernel paths dominate";
      items =
        List.concat_map
          (fun (b : Workloads.Lmbench.bench) ->
            List.map
              (fun setting ->
                {
                  key = "lmbench-" ^ b.bench_name ^ "@" ^ Sim.Config.name setting;
                  kind = Lmbench { bench = b; setting };
                })
              [ Native; Erebor_full ])
          Workloads.Lmbench.benches;
    };
    {
      name = "recorded-sessions";
      why =
        "erebor sessions with journal, sketch and window sinks attached: the \
         only workload on the telemetry record paths";
      items = sessions ~recorded:true [ Erebor_full ];
    };
    {
      name = "paper-suite";
      why =
        "the Table 3/4 and Fig. 8/9/10 and memshare regeneration at 2 jobs, \
         including the domain-pool fan-out";
      items =
        List.map (fun c -> { key = "eval." ^ c; kind = Paper c }) Metrics.eval_calls;
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* The request payload of a session: Drbg bytes in place of the program's
   built-in input, as long as it, so the seed varies the data but not the
   work. The last [kept_suffix] bytes stay: llama.cpp's completion samples
   from the prompt's trailing context (an order-4 model), and with that
   context unchanged its simulated run is the same for every payload. *)
let kept_suffix = 4

let payload_of ~seed ~program input =
  let len = Bytes.length input in
  let keep = min kept_suffix len in
  let p =
    Crypto.Drbg.bytes
      (Crypto.Drbg.create ~seed:(Printf.sprintf "perf-payload:%d:%s" seed program))
      len
  in
  Bytes.blit input (len - keep) p (len - keep) keep;
  p

(* Seeded Fisher-Yates order for pass [pass]. *)
let permute ~seed ~pass items =
  let a = Array.of_list items in
  let rng = Crypto.Drbg.create ~seed:(Printf.sprintf "perf-order:%d:%d" seed pass) in
  for i = Array.length a - 1 downto 1 do
    let j = Crypto.Drbg.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Mirrors [Workloads.Lmbench]'s own spec: a non-sandboxed loop of the
   bench's operation over its prepared working set. *)
let lmbench_spec (b : Workloads.Lmbench.bench) =
  {
    Sim.Machine.name = "lmbench-" ^ b.bench_name;
    sandboxed = false;
    timer_hz = 1000;
    init_compute = 0;
    confined_bytes = b.prepare_pages * Hw.Phys_mem.page_size;
    nominal_confined_mb = 0;
    common = None;
    threads = 1;
    contention = 0.0;
    input = Bytes.empty;
    output_bucket = 64;
    body =
      (fun ops ->
        for _ = 1 to b.iterations do
          b.op ops
        done);
  }

(* {2 Simulated results as flat (field, value) lists} *)

let num i = float_of_int i

let run_fields (r : Sim.Machine.run_result) =
  let s = r.stats in
  [
    ("init_cycles", num r.init_cycles);
    ("run_cycles", num r.run_cycles);
    ("output_len", num (Bytes.length r.output));
    ("wire_output_len", num r.wire_output_len);
    ("stats.cycles", num s.cycles);
    ("stats.seconds", s.seconds);
    ("stats.page_faults", num s.page_faults);
    ("stats.timer_irqs", num s.timer_irqs);
    ("stats.ve_exits", num s.ve_exits);
    ("stats.syscalls", num s.syscalls);
    ("stats.emc_total", num s.emc_total);
    ("stats.emc_mmu", num s.emc_mmu);
    ("stats.emc_cr", num s.emc_cr);
    ("stats.emc_msr", num s.emc_msr);
    ("stats.emc_idt", num s.emc_idt);
    ("stats.emc_smap", num s.emc_smap);
    ("stats.emc_ghci", num s.emc_ghci);
    ("stats.context_switches", num s.context_switches);
    ("stats.mmu_denies", num s.mmu_denies);
  ]

let eval_fields call ?instrument () =
  let open Workloads.Eval in
  let rows f l = List.concat_map f l in
  match call with
  | "table3" ->
      rows
        (fun r ->
          [
            (r.transition ^ ".cycles", num r.cycles);
            (r.transition ^ ".ratio_vs_emc", r.ratio_vs_emc);
          ])
        (table3 ?instrument ())
  | "table4" ->
      rows
        (fun r ->
          [
            (r.op ^ ".native_cycles", num r.native_cycles);
            (r.op ^ ".erebor_cycles", num r.erebor_cycles);
            (r.op ^ ".slowdown", r.slowdown);
          ])
        (table4 ?instrument ())
  | "fig8" ->
      rows
        (fun r ->
          [
            (r.bench ^ ".native_avg", r.native_avg);
            (r.bench ^ ".erebor_avg", r.erebor_avg);
            (r.bench ^ ".ratio", r.ratio);
            (r.bench ^ ".emc_per_sec", r.emc_per_sec);
          ])
        (fig8 ~jobs:2 ())
  | "fig9" ->
      rows
        (fun r ->
          let k = r.program ^ "@" ^ Sim.Config.name r.setting ^ "." in
          [
            (k ^ "overhead_pct", r.overhead_pct);
            (k ^ "init_overhead_pct", r.init_overhead_pct);
            (k ^ "time_seconds", r.time_seconds);
            (k ^ "pf_rate", r.pf_rate);
            (k ^ "timer_rate", r.timer_rate);
            (k ^ "ve_rate", r.ve_rate);
            (k ^ "emc_rate", r.emc_rate);
            (k ^ "output_bytes", num r.output_bytes);
          ])
        (fig9 ~jobs:2 ())
  | "fig10" ->
      rows
        (fun r ->
          let k = Printf.sprintf "%s/%dkb." r.server r.file_kb in
          [
            (k ^ "native_mbps", r.native_mbps);
            (k ^ "erebor_mbps", r.erebor_mbps);
            (k ^ "relative", r.relative);
          ])
        (fig10 ~jobs:2 ())
  | "memshare" ->
      rows
        (fun r ->
          let k = string_of_int r.sandboxes ^ "." in
          [
            (k ^ "shared_frames", num r.shared_frames);
            (k ^ "replicated_frames", num r.replicated_frames);
            (k ^ "saving_pct", r.saving_pct);
          ])
        (memshare ~jobs:2 ())
  | c -> invalid_arg ("Items.eval_fields: " ^ c)

(* {2 Running one item} *)

type outcome = {
  fields : (string * float) list;  (** Simulated results, checked by the caller. *)
  problem : string option;         (** A failure the fields cannot show. *)
}

(* Where a traced run hooks in: [instrument] is called on every machine's
   emitter before it boots, and [span] brackets the benchmark's own calls
   into the simulator with a layer slot. *)
type hooks = {
  instrument : Obs.Emitter.t -> unit;
  span : 'a. [ `Create | `Run ] -> (unit -> 'a) -> 'a;
}

let machine ?hooks ?journal ?window ?sketches ?frames ?cma_frames setting =
  match hooks with
  | None ->
      Sim.Machine.create ?journal ?window ?sketches ?frames ?cma_frames ~setting ()
  | Some h ->
      let obs = Obs.Emitter.create () in
      h.instrument obs;
      h.span `Create (fun () ->
          Sim.Machine.create ~obs ?journal ?window ?sketches ?frames ?cma_frames
            ~setting ())

let run_spec ?hooks m spec =
  match hooks with
  | None -> Sim.Machine.run m spec
  | Some h -> h.span `Run (fun () -> Sim.Machine.run m spec)

let killed (r : Sim.Machine.run_result) =
  Option.map (fun why -> "sandbox killed: " ^ why) r.killed

(* [payload] (default true) swaps in the seeded request; the reference is
   generated from the built-in one. [tmp] holds the recorded sessions'
   journals, each deleted once its event count is checked. *)
let run ?hooks ?(payload = true) ~seed ~tmp item =
  match item.kind with
  | Lmbench { bench; setting } ->
      let m = machine ?hooks ~frames:32768 ~cma_frames:2048 setting in
      let r = run_spec ?hooks m (lmbench_spec bench) in
      { fields = run_fields r; problem = killed r }
  | Paper call ->
      let instrument = Option.map (fun h -> h.instrument) hooks in
      { fields = eval_fields call ?instrument (); problem = None }
  | Session { program; spec; setting; recorded } ->
      let spec = spec () in
      let spec =
        if payload then
          { spec with input = payload_of ~seed ~program spec.input }
        else spec
      in
      if not recorded then
        let m = machine ?hooks setting in
        let r = run_spec ?hooks m spec in
        { fields = run_fields r; problem = killed r }
      else
        let path =
          Filename.concat tmp
            (Printf.sprintf "recorded-%d-%s.ejrn" (Unix.getpid ()) program)
        in
        let journal = Obs.Journal.Writer.create ~path () in
        let window = Obs.Window.create ~width:10_500_000 ~buckets:120 () in
        let sketches = Obs.Sketch.Family.create () in
        Fun.protect
          ~finally:(fun () ->
            Obs.Journal.Writer.close journal ~now:0;
            try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let m = machine ?hooks ~journal ~window ~sketches setting in
            let r = run_spec ?hooks m spec in
            Obs.Emitter.finalize (Sim.Machine.obs m)
              ~now:(Hw.Cycles.now (Sim.Machine.clock m));
            let journaled = Obs.Journal.Writer.events journal in
            let counted = Obs.Counter.total (Sim.Machine.counters m) in
            let problem =
              match killed r with
              | Some _ as k -> k
              | None when journaled <> counted ->
                  Some
                    (Printf.sprintf "journal holds %d events, counters saw %d"
                       journaled counted)
              | None -> None
            in
            { fields = run_fields r; problem })
