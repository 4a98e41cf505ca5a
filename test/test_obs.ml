(* Tests for the lib/obs event subsystem: sinks in isolation, counter-view
   equivalence against the legacy per-layer mirrors on every setting,
   MMU-guard denial accounting, and golden-trace determinism. *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let small_spec ?(sandboxed = true) ?(body = fun _ -> ()) ?(common = None) () =
  {
    Sim.Machine.name = "obs-test";
    sandboxed;
    timer_hz = 1000;
    init_compute = 0;
    confined_bytes = 32 * 4096;
    nominal_confined_mb = 1;
    common;
    threads = 2;
    contention = 0.2;
    input = Bytes.of_string "obs test input";
    output_bucket = 256;
    body;
  }

(* Exercises most event sources: compute (timer IRQs + context switches),
   demand faults, host I/O (#VE + proxy), services, cpuid, sync, PTE churn
   and the channel echo. *)
let rich_body (ops : Sim.Machine.ops) =
  ops.Sim.Machine.compute 10_000_000;
  ops.Sim.Machine.cold_fault ();
  ops.Sim.Machine.host_io ~bytes:4096;
  ops.Sim.Machine.service ();
  ops.Sim.Machine.cpuid ();
  ops.Sim.Machine.sync_op ~contended:false;
  ops.Sim.Machine.pte_churn ~n:3;
  let input = ops.Sim.Machine.recv_input () in
  ops.Sim.Machine.send_output (Bytes.cat (Bytes.of_string "echo:") input)

(* ------------------------------------------------------------------ *)
(* Sinks in isolation                                                  *)
(* ------------------------------------------------------------------ *)

let test_emitter_fanout () =
  let obs = Obs.Emitter.create () in
  let a = Obs.Counter.attach obs (Obs.Counter.create ()) in
  let b = Obs.Counter.attach obs (Obs.Counter.create ()) in
  Obs.Emitter.emit obs Obs.Trace.Syscall ~ts:1 ~arg:0;
  Obs.Emitter.emit obs Obs.Trace.Syscall ~ts:2 ~arg:1;
  Obs.Emitter.emit obs Obs.Trace.Page_fault ~ts:3 ~arg:0x1000;
  List.iter
    (fun c ->
      Alcotest.(check int) "syscalls" 2 (Obs.Counter.count c Obs.Trace.Syscall);
      Alcotest.(check int) "faults" 1 (Obs.Counter.count c Obs.Trace.Page_fault);
      Alcotest.(check int) "total" 3 (Obs.Counter.total c);
      Alcotest.(check int) "arg sum" 1 (Obs.Counter.arg_sum c Obs.Trace.Syscall))
    [ a; b ];
  Obs.Counter.reset a;
  Alcotest.(check int) "reset" 0 (Obs.Counter.total a);
  Alcotest.(check int) "other sink untouched" 3 (Obs.Counter.total b)

(* qcheck: the emitter's built-in tallies and per-kind routing against
   list-based references. Random programs interleave emissions with
   counter attaches, counter resets and sink attaches (routed to a random
   [~kinds] subset, or to every kind). Every counter view must equal a
   reference sink attached at the same point (and cleared at the same
   resets); every routed sink must receive exactly its kinds' subsequence
   of the events emitted after it attached; unrouted sinks every event;
   and each event must reach its receivers in attach order. *)
type route_op =
  | Emit of int * int
  | Attach_counter
  | Reset_counter of int
  | Attach_sink of int list option

let prop_emitter_routing =
  let kinds = Array.of_list Obs.Trace.all in
  let n = Array.length kinds in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (8, map2 (fun k a -> Emit (k, a)) (int_bound (n - 1)) (int_range (-100) 100));
          (1, return Attach_counter);
          (1, map (fun j -> Reset_counter j) (int_bound 4));
          (1, return (Attach_sink None));
          ( 2,
            map
              (fun ks -> Attach_sink (Some ks))
              (list_size (int_bound 6) (int_bound (n - 1))) );
        ])
  in
  let show = function
    | Emit (k, a) -> Printf.sprintf "emit %s %d" (Obs.Trace.name kinds.(k)) a
    | Attach_counter -> "counter"
    | Reset_counter j -> Printf.sprintf "reset %d" j
    | Attach_sink None -> "sink *"
    | Attach_sink (Some ks) ->
        "sink "
        ^ String.concat "," (List.map (fun k -> Obs.Trace.name kinds.(k)) ks)
  in
  QCheck.Test.make ~name:"counter views + kind routing = list references"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show ops))
       QCheck.Gen.(list_size (int_bound 120) gen_op))
    (fun ops ->
      let obs = Obs.Emitter.create () in
      let counters = ref [] (* (view, reference), newest first *) in
      let sinks = ref [] (* (id, kind indices or None), newest first *) in
      let delivered = ref [] (* (event seq, sink id), newest first *) in
      let expected = ref [] in
      let seq = ref 0 in
      List.iter
        (function
          | Emit (k, arg) ->
              let receivers =
                List.filter_map
                  (fun (id, ks) ->
                    match ks with
                    | Some ks when not (List.mem k ks) -> None
                    | Some _ | None -> Some (!seq, id))
                  (List.rev !sinks)
              in
              expected := List.rev_append receivers !expected;
              Obs.Emitter.emit obs kinds.(k) ~ts:!seq ~arg;
              incr seq
          | Attach_counter ->
              let view = Obs.Counter.attach obs (Obs.Counter.create ()) in
              let reference = ref [] in
              Obs.Emitter.attach obs (fun kind ~ts:_ ~arg ->
                  reference := (kind, arg) :: !reference);
              counters := (view, reference) :: !counters
          | Reset_counter j -> (
              match List.nth_opt !counters j with
              | Some (view, reference) ->
                  Obs.Counter.reset view;
                  reference := []
              | None -> ())
          | Attach_sink ks ->
              let id = List.length !sinks in
              let kinds = Option.map (List.map (fun k -> kinds.(k))) ks in
              Obs.Emitter.attach ?kinds obs (fun _ ~ts ~arg:_ ->
                  delivered := (ts, id) :: !delivered);
              sinks := (id, ks) :: !sinks)
        ops;
      let view_matches (view, reference) =
        Obs.Counter.total view = List.length !reference
        && Array.for_all
             (fun kind ->
               let mine = List.filter (fun (k, _) -> k = kind) !reference in
               Obs.Counter.count view kind = List.length mine
               && Obs.Counter.arg_sum view kind
                  = List.fold_left (fun acc (_, a) -> acc + a) 0 mine)
             kinds
      in
      List.for_all view_matches !counters && !delivered = !expected)

(* Two machines over one shared emitter: each machine's counter (and its
   monitor's) is a view that counts from the moment it attached, so the
   first machine also counts every event of the second, and the second
   counts only its own. The figures pin that base-offset semantics. *)
let test_shared_emitter_views () =
  let obs = Obs.Emitter.create () in
  let run () =
    let m =
      Sim.Machine.create ~obs ~frames:32768 ~cma_frames:4096
        ~setting:Sim.Config.Erebor_full ()
    in
    ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
    m
  in
  let a = run () in
  let b = run () in
  let figures m =
    let s = Sim.Machine.snapshot m in
    let es =
      Erebor.Monitor.emc_stats
        (Erebor.Sandbox.manager_monitor (Option.get (Sim.Machine.manager m)))
    in
    Sim.Stats.
      [ s.cycles; s.page_faults; s.timer_irqs; s.ve_exits; s.syscalls;
        s.emc_total; s.emc_mmu; s.emc_cr; s.emc_msr; s.emc_idt; s.emc_smap;
        s.emc_ghci; s.context_switches; s.mmu_denies ]
    @ Erebor.Monitor.[ es.mmu; es.cr; es.msr; es.idt; es.smap; es.ghci ]
  in
  Alcotest.(check (list int)) "first machine counts both runs"
    [ 10657619; 132; 8; 2; 4; 334; 306; 16; 0; 0; 2; 2; 2; 0;
      306; 16; 0; 0; 2; 2 ]
    (figures a);
  Alcotest.(check (list int)) "second machine counts its own run"
    [ 10657619; 66; 4; 1; 2; 167; 153; 8; 0; 0; 1; 1; 1; 0;
      153; 8; 0; 0; 1; 1 ]
    (figures b);
  Alcotest.(check int) "event totals" 2594
    (Obs.Counter.total (Sim.Machine.counters a));
  Alcotest.(check int) "second total" 1297
    (Obs.Counter.total (Sim.Machine.counters b))

let test_ring_wraparound () =
  let obs = Obs.Emitter.create () in
  let ring = Obs.Ring.attach obs (Obs.Ring.create ~capacity:8) in
  for i = 0 to 19 do
    Obs.Emitter.emit obs Obs.Trace.Syscall ~ts:(100 + i) ~arg:i
  done;
  Alcotest.(check int) "capacity" 8 (Obs.Ring.capacity ring);
  Alcotest.(check int) "length" 8 (Obs.Ring.length ring);
  Alcotest.(check int) "dropped" 12 (Obs.Ring.dropped ring);
  Alcotest.(check (list int)) "last 8, oldest first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun e -> e.Obs.Trace.arg) (Obs.Ring.to_list ring));
  Obs.Ring.clear ring;
  Alcotest.(check int) "cleared" 0 (Obs.Ring.length ring);
  Alcotest.(check int) "dropped reset" 0 (Obs.Ring.dropped ring);
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Obs.Ring.create ~capacity:0))

let test_histogram_bucketing () =
  (* bucket b covers [2^(b-1), 2^b - 1]; bucket 0 is exactly 0. *)
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b
        (Obs.Histogram.bucket_of v))
    [ (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4); (1024, 11) ];
  let obs = Obs.Emitter.create () in
  let hist = Obs.Histogram.attach obs (Obs.Histogram.create ()) in
  let values = [ 0; 1; 1; 2; 3; 4; 100; 128_081 ] in
  List.iteri
    (fun i v -> Obs.Emitter.emit obs Obs.Trace.Emc_entry ~ts:i ~arg:v)
    values;
  Alcotest.(check int) "count" (List.length values)
    (Obs.Histogram.count hist Obs.Trace.Emc_entry);
  Alcotest.(check int) "sum"
    (List.fold_left ( + ) 0 values)
    (Obs.Histogram.sum hist Obs.Trace.Emc_entry);
  Alcotest.(check int) "max" 128_081
    (Obs.Histogram.max_value hist Obs.Trace.Emc_entry);
  Alcotest.(check int) "bucket [1,1] holds both ones" 2
    (Obs.Histogram.bucket_count hist Obs.Trace.Emc_entry ~value:1);
  Alcotest.(check int) "bucket [2,3]" 2
    (Obs.Histogram.bucket_count hist Obs.Trace.Emc_entry ~value:3);
  let buckets = Obs.Histogram.buckets hist Obs.Trace.Emc_entry in
  Alcotest.(check int) "bucket counts total" (List.length values)
    (List.fold_left (fun acc (_, _, n) -> acc + n) 0 buckets);
  List.iter
    (fun (lo, hi, n) ->
      Alcotest.(check bool) "bucket bounds ordered" true (lo <= hi && n > 0))
    buckets;
  Alcotest.(check int) "other kind empty" 0
    (Obs.Histogram.count hist Obs.Trace.Syscall)

let test_with_span () =
  let obs = Obs.Emitter.create () in
  let rec_ = Obs.Chrome.attach obs (Obs.Chrome.create ()) in
  let clock = ref 10 in
  let result =
    Obs.with_span obs
      ~now:(fun () -> !clock)
      Obs.Trace.Run
      (fun () ->
        clock := 25;
        42)
  in
  Alcotest.(check int) "body result" 42 result;
  match Obs.Chrome.events rec_ with
  | [ b; e ] ->
      Alcotest.(check bool) "begin" true
        (b.Obs.Trace.kind = Obs.Trace.Span_begin Obs.Trace.Run
        && b.Obs.Trace.ts = 10);
      Alcotest.(check bool) "end" true
        (e.Obs.Trace.kind = Obs.Trace.Span_end Obs.Trace.Run
        && e.Obs.Trace.ts = 25)
  | evs -> Alcotest.failf "expected 2 span events, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Counter-sink equivalence with the legacy per-layer mirrors          *)
(* ------------------------------------------------------------------ *)

(* The machine snapshot is derived exclusively from the counter view on the
   event bus; the refactor kept the original per-layer counters (kernel
   stats record, scheduler switch count, gate/guard counts) as mirrors.
   They must agree exactly, on every setting, over a body that exercises
   every event source. *)
let test_counter_equivalence () =
  List.iter
    (fun setting ->
      let name field = Sim.Config.name setting ^ " " ^ field in
      let m =
        Sim.Machine.create ~frames:32768 ~cma_frames:4096 ~setting ()
      in
      let r = Sim.Machine.run m (small_spec ~body:rich_body ()) in
      Alcotest.(check bool) (name "not killed") true (r.Sim.Machine.killed = None);
      let snap = Sim.Machine.snapshot m in
      let kern = Sim.Machine.kern m in
      let st = kern.Kernel.stats in
      Alcotest.(check int) (name "page faults") st.Kernel.page_faults
        snap.Sim.Stats.page_faults;
      Alcotest.(check int) (name "syscalls") st.Kernel.syscalls
        snap.Sim.Stats.syscalls;
      Alcotest.(check int) (name "timer irqs") st.Kernel.timer_irqs
        snap.Sim.Stats.timer_irqs;
      Alcotest.(check int) (name "ve exits") st.Kernel.ve_exits
        snap.Sim.Stats.ve_exits;
      Alcotest.(check int) (name "context switches")
        (Kernel.Sched.switches kern.Kernel.sched)
        snap.Sim.Stats.context_switches;
      (match Sim.Machine.manager m with
      | Some mgr ->
          let mon = Erebor.Sandbox.manager_monitor mgr in
          let es = Erebor.Monitor.emc_stats mon in
          Alcotest.(check int) (name "emc total")
            (Erebor.Monitor.emc_total mon)
            snap.Sim.Stats.emc_total;
          Alcotest.(check int) (name "emc mmu") es.Erebor.Monitor.mmu
            snap.Sim.Stats.emc_mmu;
          Alcotest.(check int) (name "emc cr") es.Erebor.Monitor.cr
            snap.Sim.Stats.emc_cr;
          Alcotest.(check int) (name "emc msr") es.Erebor.Monitor.msr
            snap.Sim.Stats.emc_msr;
          Alcotest.(check int) (name "emc idt") es.Erebor.Monitor.idt
            snap.Sim.Stats.emc_idt;
          Alcotest.(check int) (name "emc smap") es.Erebor.Monitor.smap
            snap.Sim.Stats.emc_smap;
          Alcotest.(check int) (name "emc ghci") es.Erebor.Monitor.ghci
            snap.Sim.Stats.emc_ghci;
          Alcotest.(check int) (name "mmu denies")
            (Erebor.Mmu_guard.denied_count (Erebor.Monitor.guard mon))
            snap.Sim.Stats.mmu_denies
      | None ->
          Alcotest.(check int) (name "no monitor: emc total") 0
            snap.Sim.Stats.emc_total;
          Alcotest.(check int) (name "no monitor: denies") 0
            snap.Sim.Stats.mmu_denies);
      (* The counter view exposed by the machine is the snapshot's source. *)
      let c = Sim.Machine.counters m in
      Alcotest.(check int) (name "counter is source")
        (Obs.Counter.count c Obs.Trace.Page_fault)
        snap.Sim.Stats.page_faults)
    Sim.Config.all

(* Satellite: the new emc_idt snapshot field really counts lidt services
   (machine boot under Erebor programs the IDT through the monitor). *)
let test_emc_idt_counted () =
  let m =
    Sim.Machine.create ~frames:32768 ~cma_frames:4096
      ~setting:Sim.Config.Erebor_full ()
  in
  ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
  let kern = Sim.Machine.kern m in
  for _ = 1 to 3 do
    kern.Kernel.privops.Kernel.Privops.lidt (Hw.Idt.create ())
  done;
  let snap = Sim.Machine.snapshot m in
  let mon =
    Erebor.Sandbox.manager_monitor (Option.get (Sim.Machine.manager m))
  in
  let es = Erebor.Monitor.emc_stats mon in
  Alcotest.(check int) "idt mirrors monitor" es.Erebor.Monitor.idt
    snap.Sim.Stats.emc_idt;
  Alcotest.(check int) "idt services counted" 3 snap.Sim.Stats.emc_idt;
  (* And it participates in diff/pp. *)
  let d = Sim.Stats.diff ~before:Sim.Stats.zero ~after:snap in
  Alcotest.(check int) "diff keeps idt" snap.Sim.Stats.emc_idt
    d.Sim.Stats.emc_idt;
  let rendered = Fmt.str "%a" Sim.Stats.pp snap in
  Alcotest.(check bool) "pp reports denies" true
    (contains ~sub:"denies=" rendered)

(* Satellite: MMU-guard denial counts surface in the snapshot, so security
   tests can assert exact counts. A benign run must show zero; every
   policy-violating PTE store afterwards must count exactly once. *)
let test_denial_counts () =
  let m =
    Sim.Machine.create ~frames:32768 ~cma_frames:4096
      ~setting:Sim.Config.Erebor_full ()
  in
  ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
  let snap0 = Sim.Machine.snapshot m in
  Alcotest.(check int) "benign run: zero denials" 0 snap0.Sim.Stats.mmu_denies;
  let kern = Sim.Machine.kern m in
  let denied = ref 0 in
  for i = 0 to 4 do
    (* Frames far above anything the kernel registered as page tables:
       stores there must be rejected by the guard. *)
    let pte_addr = Hw.Phys_mem.addr_of_pfn (20_000 + i) + 8 in
    let pte = Hw.Pte.make ~pfn:(100 + i) Hw.Pte.default_flags in
    match kern.Kernel.privops.Kernel.Privops.write_pte ~pte_addr pte with
    | () -> ()
    | exception Erebor.Monitor.Policy_violation _ -> incr denied
  done;
  Alcotest.(check int) "all stores denied" 5 !denied;
  let snap1 = Sim.Machine.snapshot m in
  Alcotest.(check int) "denials surfaced exactly" 5 snap1.Sim.Stats.mmu_denies;
  let mon =
    Erebor.Sandbox.manager_monitor (Option.get (Sim.Machine.manager m))
  in
  Alcotest.(check int) "matches guard mirror"
    (Erebor.Mmu_guard.denied_count (Erebor.Monitor.guard mon))
    snap1.Sim.Stats.mmu_denies

(* ------------------------------------------------------------------ *)
(* Golden-trace determinism and Chrome export                          *)
(* ------------------------------------------------------------------ *)

let traced_run () =
  let obs = Obs.Emitter.create () in
  let rec_ = Obs.Chrome.attach obs (Obs.Chrome.create ()) in
  let m =
    Sim.Machine.create ~obs ~frames:32768 ~cma_frames:4096
      ~setting:Sim.Config.Erebor_full ()
  in
  ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
  (m, rec_)

let test_golden_trace_determinism () =
  let _, r1 = traced_run () in
  let _, r2 = traced_run () in
  Alcotest.(check bool) "non-empty" true (Obs.Chrome.length r1 > 0);
  Alcotest.(check int) "same length" (Obs.Chrome.length r1)
    (Obs.Chrome.length r2);
  Alcotest.(check bool) "byte-identical event stream" true
    (Obs.Chrome.events r1 = Obs.Chrome.events r2);
  Alcotest.(check bool) "identical chrome JSON" true
    (String.equal (Obs.Chrome.to_chrome_json r1) (Obs.Chrome.to_chrome_json r2))

let test_trace_counts_match_snapshot () =
  let m, rec_ = traced_run () in
  let snap = Sim.Machine.snapshot m in
  let count k =
    let n = ref 0 in
    Obs.Chrome.iter rec_ (fun e -> if e.Obs.Trace.kind = k then incr n);
    !n
  in
  List.iter
    (fun (label, k, expected) ->
      Alcotest.(check int) label expected (count k))
    [
      ("page faults", Obs.Trace.Page_fault, snap.Sim.Stats.page_faults);
      ("syscalls", Obs.Trace.Syscall, snap.Sim.Stats.syscalls);
      ("timer irqs", Obs.Trace.Timer_irq, snap.Sim.Stats.timer_irqs);
      ("ve exits", Obs.Trace.Ve_exit, snap.Sim.Stats.ve_exits);
      ("ctx switches", Obs.Trace.Context_switch, snap.Sim.Stats.context_switches);
      ("emc entries", Obs.Trace.Emc_entry, snap.Sim.Stats.emc_total);
      ("emc mmu", Obs.Trace.emc_mmu, snap.Sim.Stats.emc_mmu);
      ("emc ghci", Obs.Trace.emc_ghci, snap.Sim.Stats.emc_ghci);
      ("denies", Obs.Trace.Mmu_deny, snap.Sim.Stats.mmu_denies);
    ];
  (* Boot / attest / run spans all appear, balanced. *)
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Obs.Trace.phase_name phase ^ " span balanced")
        true
        (count (Obs.Trace.span_begin phase) = count (Obs.Trace.span_end phase)
        && count (Obs.Trace.span_begin phase) > 0))
    [ Obs.Trace.Boot; Obs.Trace.Attest; Obs.Trace.Run ];
  let json = Obs.Chrome.to_chrome_json rec_ in
  Alcotest.(check bool) "chrome JSON object" true
    (String.length json > 2 && json.[0] = '{');
  Alcotest.(check bool) "has traceEvents" true
    (contains ~sub:"\"traceEvents\"" json)

(* ------------------------------------------------------------------ *)
(* Histogram percentiles                                               *)
(* ------------------------------------------------------------------ *)

let test_percentile () =
  let obs = Obs.Emitter.create () in
  let h = Obs.Histogram.attach obs (Obs.Histogram.create ()) in
  (* Empty: no samples, every percentile is 0. *)
  Alcotest.(check int) "empty p50" 0
    (Obs.Histogram.percentile h Obs.Trace.Emc_entry ~p:0.5);
  (* One sample: every percentile is exactly that sample. *)
  Obs.Emitter.emit obs Obs.Trace.Page_fault ~ts:0 ~arg:9;
  Alcotest.(check int) "single-sample p100" 9
    (Obs.Histogram.percentile h Obs.Trace.Page_fault ~p:1.0);
  Alcotest.(check int) "single-sample p50" 9
    (Obs.Histogram.percentile h Obs.Trace.Page_fault ~p:0.5);
  Alcotest.(check int) "single-sample p0" 9
    (Obs.Histogram.percentile h Obs.Trace.Page_fault ~p:0.0);
  (* Single bucket: three samples of 7 live in [4,7]; the interpolated
     estimate is clamped to the observed [min, max] — here both are 7. *)
  for i = 1 to 3 do
    Obs.Emitter.emit obs Obs.Trace.Emc_entry ~ts:i ~arg:7
  done;
  Alcotest.(check int) "single-bucket p0" 7
    (Obs.Histogram.percentile h Obs.Trace.Emc_entry ~p:0.0);
  Alcotest.(check int) "single-bucket p50" 7
    (Obs.Histogram.percentile h Obs.Trace.Emc_entry ~p:0.5);
  Alcotest.(check int) "single-bucket p100" 7
    (Obs.Histogram.percentile h Obs.Trace.Emc_entry ~p:1.0);
  (* Out-of-range p is clamped, not an error. *)
  Alcotest.(check int) "p>1 clamped" 7
    (Obs.Histogram.percentile h Obs.Trace.Emc_entry ~p:2.0);
  Alcotest.(check int) "p<0 clamped" 7
    (Obs.Histogram.percentile h Obs.Trace.Emc_entry ~p:(-1.0));
  Alcotest.(check int) "min_value tracked" 7
    (Obs.Histogram.min_value h Obs.Trace.Emc_entry);
  Alcotest.(check int) "min_value empty is 0" 0
    (Obs.Histogram.min_value h Obs.Trace.Tdcall);
  (* Multi-bucket: [1;1;2;3;4;100] spreads over four buckets. *)
  List.iteri
    (fun i v -> Obs.Emitter.emit obs Obs.Trace.Syscall ~ts:i ~arg:v)
    [ 1; 1; 2; 3; 4; 100 ];
  Alcotest.(check int) "multi p50" 3
    (Obs.Histogram.percentile h Obs.Trace.Syscall ~p:0.5);
  (* The tail percentiles land in [64,127] but clamp to the true max. *)
  Alcotest.(check int) "multi p95 clamps to max" 100
    (Obs.Histogram.percentile h Obs.Trace.Syscall ~p:0.95);
  Alcotest.(check int) "multi p99 clamps to max" 100
    (Obs.Histogram.percentile h Obs.Trace.Syscall ~p:0.99);
  (* pp surfaces the percentile columns. *)
  let rendered = Fmt.str "%a" Obs.Histogram.pp (h, Obs.Trace.Syscall) in
  Alcotest.(check bool) "pp has percentiles" true
    (contains ~sub:"p50=3" rendered && contains ~sub:"p95=100" rendered)

(* ------------------------------------------------------------------ *)
(* Chrome hardening: JSON escaping, unbalanced span stacks             *)
(* ------------------------------------------------------------------ *)

let count_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let c = ref 0 in
  for i = 0 to m - n do
    if String.sub s i n = sub then incr c
  done;
  !c

let test_chrome_escape () =
  Alcotest.(check string) "plain untouched" "syscall"
    (Obs.Audit.escape_json "syscall");
  Alcotest.(check string) "quote and backslash" "a\\\"b\\\\c"
    (Obs.Audit.escape_json "a\"b\\c");
  Alcotest.(check string) "newline" "x\\ny" (Obs.Audit.escape_json "x\ny");
  Alcotest.(check string) "control char" "\\u0001"
    (Obs.Audit.escape_json "\001")

let test_chrome_unbalanced () =
  let obs = Obs.Emitter.create () in
  let rec_ = Obs.Chrome.attach obs (Obs.Chrome.create ()) in
  (* A stray end with no open span must be dropped... *)
  Obs.Emitter.emit obs (Obs.Trace.span_end Obs.Trace.Run) ~ts:5 ~arg:0;
  (* ...and spans left open at export time get synthetic E events. *)
  Obs.Emitter.emit obs (Obs.Trace.span_begin Obs.Trace.Run) ~ts:10 ~arg:0;
  Obs.Emitter.emit obs (Obs.Trace.span_begin Obs.Trace.Emc_gate) ~ts:20 ~arg:0;
  Obs.Emitter.emit obs Obs.Trace.Syscall ~ts:30 ~arg:0;
  let json = Obs.Chrome.to_chrome_json rec_ in
  Alcotest.(check int) "every B has an E" (count_sub ~sub:{|"ph":"B"|} json)
    (count_sub ~sub:{|"ph":"E"|} json);
  Alcotest.(check int) "two spans closed synthetically" 2
    (count_sub ~sub:{|"ph":"E"|} json);
  (* Synthetic ends carry the last seen timestamp, keeping ts monotone. *)
  Alcotest.(check int) "synthetic ends at last ts" 2
    (count_sub ~sub:{|"ph":"E","ts":30|} json);
  (* A balanced stream is unaffected by the hardening. *)
  let obs2 = Obs.Emitter.create () in
  let rec2 = Obs.Chrome.attach obs2 (Obs.Chrome.create ()) in
  Obs.Emitter.emit obs2 (Obs.Trace.span_begin Obs.Trace.Run) ~ts:1 ~arg:0;
  Obs.Emitter.emit obs2 (Obs.Trace.span_end Obs.Trace.Run) ~ts:2 ~arg:0;
  let json2 = Obs.Chrome.to_chrome_json rec2 in
  Alcotest.(check int) "balanced: one B" 1 (count_sub ~sub:{|"ph":"B"|} json2);
  Alcotest.(check int) "balanced: one E" 1 (count_sub ~sub:{|"ph":"E"|} json2)

(* ------------------------------------------------------------------ *)
(* Cycle attribution: unit semantics, conservation on real machines    *)
(* ------------------------------------------------------------------ *)

(* A hand-driven event stream exercising nesting, same-phase collapse,
   stray ends and the close-time flush:
     0..10   outside any span          -> root
     10..30  boot                      -> boot
     30..50  boot > gate               -> gate
     50..60  boot > gate (re-entered)  -> gate
     60..80  boot > gate > gate(same)  -> gate (collapsed, no new node)
     80..90  boot > gate               -> gate
     90..100 boot                      -> boot
     100..120 closed                   -> root *)
let synthetic_attrib () =
  let obs = Obs.Emitter.create () in
  let a = Obs.Attrib.attach obs (Obs.Attrib.create ()) in
  let b p ts = Obs.Emitter.emit obs (Obs.Trace.span_begin p) ~ts ~arg:0 in
  let e p ts = Obs.Emitter.emit obs (Obs.Trace.span_end p) ~ts ~arg:0 in
  b Obs.Trace.Boot 10;
  b Obs.Trace.Emc_gate 30;
  e Obs.Trace.Emc_gate 50;
  b Obs.Trace.Emc_gate 50;
  b Obs.Trace.Emc_gate 60;
  e Obs.Trace.Emc_gate 80;
  e Obs.Trace.Emc_gate 90;
  e Obs.Trace.Boot 100;
  (* Stray end at depth 0: ignored, never underflows. *)
  e Obs.Trace.Run 100;
  Obs.Attrib.close a ~now:120;
  a

let test_attrib_semantics () =
  let a = synthetic_attrib () in
  Alcotest.(check int) "balanced" 0 (Obs.Attrib.open_depth a);
  Alcotest.(check int) "total = final clock" 120 (Obs.Attrib.total a);
  Alcotest.(check int) "unattributed" 30 (Obs.Attrib.unattributed a);
  Alcotest.(check int) "boot self" 30
    (Obs.Attrib.phase_cycles a Obs.Trace.Boot);
  Alcotest.(check int) "gate self" 60
    (Obs.Attrib.phase_cycles a Obs.Trace.Emc_gate);
  Alcotest.(check int) "kernel domain" 30
    (Obs.Attrib.domain_cycles a Obs.Trace.Kernel);
  Alcotest.(check int) "monitor domain" 60
    (Obs.Attrib.domain_cycles a Obs.Trace.Monitor);
  (match Obs.Attrib.breakdown a with
  | [ (Obs.Trace.Kernel, Obs.Trace.Boot, 30);
      (Obs.Trace.Monitor, Obs.Trace.Emc_gate, 60) ] -> ()
  | other -> Alcotest.failf "unexpected breakdown (%d rows)" (List.length other));
  (* The context tree collapsed the same-phase re-entry: one gate node. *)
  let v = Obs.Attrib.view a in
  Alcotest.(check int) "root total" 120 v.Obs.Attrib.vtotal;
  Alcotest.(check int) "root self" 30 v.Obs.Attrib.vself;
  (match v.Obs.Attrib.vkids with
  | [ boot ] -> (
      Alcotest.(check bool) "boot node" true
        (boot.Obs.Attrib.vphase = Some Obs.Trace.Boot);
      Alcotest.(check int) "boot subtree" 90 boot.Obs.Attrib.vtotal;
      match boot.Obs.Attrib.vkids with
      | [ gate ] ->
          Alcotest.(check bool) "gate node" true
            (gate.Obs.Attrib.vphase = Some Obs.Trace.Emc_gate);
          Alcotest.(check int) "gate self" 60 gate.Obs.Attrib.vself;
          Alcotest.(check (list int)) "gate is a leaf" []
            (List.map (fun k -> k.Obs.Attrib.vself) gate.Obs.Attrib.vkids)
      | ks -> Alcotest.failf "expected 1 gate child, got %d" (List.length ks))
  | ks -> Alcotest.failf "expected 1 root child, got %d" (List.length ks))

(* HARD INVARIANT: on a real machine, attributed cycles sum exactly to the
   final clock — every cycle lands in exactly one domain x phase context.
   Checked on every setting with every event source exercised. *)
let test_attrib_conservation () =
  List.iter
    (fun setting ->
      let name field = Sim.Config.name setting ^ " " ^ field in
      let obs = Obs.Emitter.create () in
      let a = Obs.Attrib.attach obs (Obs.Attrib.create ()) in
      let m = Sim.Machine.create ~frames:32768 ~cma_frames:4096 ~obs ~setting () in
      ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
      let total = Hw.Cycles.now (Sim.Machine.clock m) in
      Obs.Attrib.close a ~now:total;
      Alcotest.(check int) (name "spans balanced") 0 (Obs.Attrib.open_depth a);
      Alcotest.(check int) (name "conservation: total") total (Obs.Attrib.total a);
      let summed =
        List.fold_left
          (fun acc (_, _, c) -> acc + c)
          (Obs.Attrib.unattributed a)
          (Obs.Attrib.breakdown a)
      in
      Alcotest.(check int) (name "conservation: breakdown sums") total summed;
      Alcotest.(check int) (name "matches stats snapshot")
        (Sim.Machine.snapshot m).Sim.Stats.cycles total)
    Sim.Config.all

(* ------------------------------------------------------------------ *)
(* Flame exporter                                                      *)
(* ------------------------------------------------------------------ *)

let test_flame_export () =
  let a = synthetic_attrib () in
  let folded = Obs.Flame.collapsed a in
  Alcotest.(check bool) "root line" true (contains ~sub:"erebor 30\n" folded);
  Alcotest.(check bool) "boot frame" true
    (contains ~sub:"erebor;kernel:boot 30\n" folded);
  Alcotest.(check bool) "nested gate frame" true
    (contains ~sub:"erebor;kernel:boot;monitor:gate 60\n" folded);
  (* Collapsed-stack wellformedness: "frames count" per line, counts
     summing to the attributed total. *)
  let sum =
    List.fold_left
      (fun acc line ->
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "malformed folded line %S" line
        | Some i ->
            acc + int_of_string (String.sub line (i + 1) (String.length line - i - 1)))
      0
      (List.filter
         (fun l -> l <> "")
         (String.split_on_char '\n' folded))
  in
  Alcotest.(check int) "folded counts sum to total" (Obs.Attrib.total a) sum

(* ------------------------------------------------------------------ *)
(* Audit chain: tamper evidence                                        *)
(* ------------------------------------------------------------------ *)

let audit_test_key = Crypto.Sha256.digest_string "test audit key"

let replace_once ~sub ~by s =
  let n = String.length sub and m = String.length s in
  let rec find i = if i + n > m then None else if String.sub s i n = sub then Some i else find (i + 1) in
  match find 0 with
  | None -> Alcotest.failf "substring %S not found" sub
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + n) (m - i - n)

let sample_chain () =
  let chain = Obs.Audit.create ~key:audit_test_key in
  List.iteri
    (fun i (category, verdict, detail) ->
      Obs.Audit.append chain ~ts:(100 + (10 * i)) ~category ~verdict ~detail)
    [
      ("scan", Obs.Audit.Allow, "kernel image accepted: 2 sections");
      ("privop.cr", Obs.Audit.Allow, "write_cr3");
      ("mmu", Obs.Audit.Deny, "PTE store outside registered tables");
      ("sandbox", Obs.Audit.Kill, "kill id=3: rate \"limit\"\nexceeded");
      ("attest", Obs.Audit.Info, "mrtd=deadbeef mac=00112233");
    ];
  chain

let test_audit_chain_roundtrip () =
  let chain = sample_chain () in
  Alcotest.(check int) "length before finalize" 5 (Obs.Audit.length chain);
  Alcotest.(check bool) "not finalized yet" false (Obs.Audit.finalized chain);
  Obs.Audit.finalize chain ~now:999;
  Obs.Audit.finalize chain ~now:12_345 (* idempotent *);
  Alcotest.(check bool) "finalized" true (Obs.Audit.finalized chain);
  Alcotest.(check int) "close record not counted" 5 (Obs.Audit.length chain);
  let recs = Obs.Audit.records chain in
  Alcotest.(check int) "records incl. close" 6 (List.length recs);
  Alcotest.(check (list int)) "append order" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (fun r -> r.Obs.Audit.seq) recs);
  Alcotest.check_raises "append after finalize"
    (Invalid_argument "Audit.append: log already finalized") (fun () ->
      Obs.Audit.append chain ~ts:1 ~category:"scan" ~verdict:Obs.Audit.Allow
        ~detail:"late");
  let s = Obs.Audit.to_string chain in
  (match Obs.Audit.verify_string ~key:audit_test_key s with
  | Ok n -> Alcotest.(check int) "verifies with count" 5 n
  | Error e -> Alcotest.failf "intact chain rejected: %s" e);
  (* The escaped detail survives the JSONL roundtrip byte-for-byte. *)
  Alcotest.(check bool) "escaped newline on the wire" true
    (contains ~sub:{|rate \"limit\"\nexceeded|} s)

let expect_reject name tampered ~msg_frag =
  match Obs.Audit.verify_string ~key:audit_test_key tampered with
  | Ok _ -> Alcotest.failf "%s: tampered chain verified" name
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: error %S mentions %S" name e msg_frag)
        true (contains ~sub:msg_frag e)

let test_audit_tamper_rejected () =
  let chain = sample_chain () in
  Obs.Audit.finalize chain ~now:999;
  let good = Obs.Audit.to_string chain in
  let lines = String.split_on_char '\n' (String.trim good) in
  let unlines ls = String.concat "\n" ls ^ "\n" in
  (* Flip a byte inside a field value: the record still parses, so the
     chain MAC is what catches it. *)
  expect_reject "flipped byte"
    (replace_once ~sub:"write_cr3" ~by:"write_cr4" good)
    ~msg_frag:"MAC mismatch";
  (* Same for a flipped hex digit in a stored MAC. *)
  expect_reject "flipped mac"
    (let mac2 = (List.nth (Obs.Audit.records chain) 2).Obs.Audit.mac in
     let flipped =
       String.mapi
         (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c)
         mac2
     in
     replace_once ~sub:mac2 ~by:flipped good)
    ~msg_frag:"MAC mismatch";
  (* Dropping a record breaks the sequence numbering. *)
  expect_reject "dropped record"
    (unlines (List.filteri (fun i _ -> i <> 2) lines))
    ~msg_frag:"sequence mismatch";
  (* So does swapping two adjacent records. *)
  expect_reject "swapped records"
    (unlines
       (List.mapi
          (fun i _ ->
            List.nth lines (if i = 1 then 2 else if i = 2 then 1 else i))
          lines))
    ~msg_frag:"sequence mismatch";
  (* Truncation: the close record is gone. *)
  expect_reject "truncated"
    (unlines (List.filteri (fun i _ -> i <> List.length lines - 1) lines))
    ~msg_frag:"truncated";
  (* A different key rejects everything from the genesis onward. *)
  (match Obs.Audit.verify_string ~key:(Bytes.of_string "wrong key") good with
  | Ok _ -> Alcotest.fail "wrong key verified"
  | Error e ->
      Alcotest.(check bool) "wrong key: first record flagged" true
        (contains ~sub:"record 0" e));
  expect_reject "empty log" "" ~msg_frag:"empty log";
  (* And the untampered rendering still verifies after all that. *)
  match Obs.Audit.verify_string ~key:audit_test_key good with
  | Ok 5 -> ()
  | Ok n -> Alcotest.failf "expected 5 records, got %d" n
  | Error e -> Alcotest.failf "control chain rejected: %s" e

let test_audit_emitter_rail () =
  let obs = Obs.Emitter.create () in
  (* No chain attached: the detail thunk must not even run. *)
  let ran = ref false in
  Obs.Emitter.audit_event obs ~ts:1 ~category:"scan" ~verdict:Obs.Audit.Allow
    (fun () ->
      ran := true;
      "detail");
  Alcotest.(check bool) "thunk skipped without chain" false !ran;
  let chain = Obs.Audit.create ~key:audit_test_key in
  Obs.Emitter.set_audit obs (Some chain);
  Obs.Emitter.audit_event obs ~ts:2 ~category:"scan" ~verdict:Obs.Audit.Deny
    (fun () ->
      ran := true;
      "bad section");
  Alcotest.(check bool) "thunk ran with chain" true !ran;
  Alcotest.(check int) "record appended" 1 (Obs.Audit.length chain);
  (* Emitter.finalize closes the attached chain. *)
  Obs.Emitter.finalize obs ~now:50;
  Alcotest.(check bool) "chain finalized via emitter" true
    (Obs.Audit.finalized chain);
  match Obs.Audit.verify_string ~key:audit_test_key (Obs.Audit.to_string chain) with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "expected 1 record, got %d" n
  | Error e -> Alcotest.failf "chain rejected: %s" e

(* A [\u] escape with non-hex digits once escaped [verify_string] as a
   [Failure "int_of_string"]; a corrupted log must read as malformed. *)
let test_audit_bad_unicode_escape () =
  let line =
    {|{"seq":0,"ts":0,"category":"x\uZZZZ","verdict":"allow","detail":"d","mac":"00"}|}
  in
  List.iter
    (fun s ->
      match Obs.Audit.verify_string ~key:audit_test_key s with
      | Error "record 0: malformed line" -> ()
      | Error e -> Alcotest.failf "%S: wrong error %S" s e
      | Ok _ -> Alcotest.failf "%S verified" s)
    [
      line;
      replace_once ~sub:{|x\uZZZZ|} ~by:{|x\u00|} line;
      replace_once ~sub:{|x\uZZZZ|} ~by:{|x\u_0_1|} line;
    ]

(* A real chain: the audit log of a full-Erebor run, plus the escape-heavy
   sample chain, each finalized. *)
let audit_seed_logs =
  lazy
    (let obs = Obs.Emitter.create () in
     let chain = Obs.Audit.create ~key:audit_test_key in
     Obs.Emitter.set_audit obs (Some chain);
     let m =
       Sim.Machine.create ~frames:32768 ~cma_frames:4096 ~obs
         ~setting:Sim.Config.Erebor_full ()
     in
     ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
     Obs.Emitter.finalize obs ~now:(Hw.Cycles.now (Sim.Machine.clock m));
     let sample = sample_chain () in
     Obs.Audit.finalize sample ~now:999;
     [ Obs.Audit.to_string chain; Obs.Audit.to_string sample ])

let audit_mutation_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun pos b -> `Flip (pos, b)) nat (int_bound 255);
        map (fun pos -> `Cut pos) nat;
        map2
          (fun pos esc -> `Insert (pos, esc))
          nat
          (oneofl
             [ {|\|}; {|\u|}; {|\u00|}; {|\uZZZZ|}; {|\u12G4|}; {|\u0041|};
               {|\uFFFF|}; {|\"|}; {|\\|} ]);
      ])

let audit_mutate s m =
  let n = String.length s in
  match m with
  | `Flip (pos, b) ->
      let by = Bytes.of_string s in
      Bytes.set by (pos mod n) (Char.chr b);
      Bytes.to_string by
  | `Cut pos -> String.sub s 0 (pos mod n)
  | `Insert (pos, esc) ->
      let pos = pos mod (n + 1) in
      String.sub s 0 pos ^ esc ^ String.sub s pos (n - pos)

let print_audit_mutation = function
  | `Flip (p, b) -> Printf.sprintf "flip %d %d" p b
  | `Cut p -> Printf.sprintf "cut %d" p
  | `Insert (p, e) -> Printf.sprintf "insert %d %S" p e

(* The verifier reads adversary-controlled files: whatever the bytes, it
   answers Ok or Error and never raises. *)
let prop_audit_verify_total =
  QCheck.Test.make ~name:"verify_string is total on mutated logs" ~count:500
    QCheck.(
      make
        ~print:(fun (real, ms) ->
          Printf.sprintf "%s log: %s"
            (if real then "run" else "sample")
            (String.concat "; " (List.map print_audit_mutation ms)))
        Gen.(pair bool (list_size (1 -- 4) audit_mutation_gen)))
    (fun (real, ms) ->
      let logs = Lazy.force audit_seed_logs in
      let log = List.nth logs (if real then 0 else 1) in
      let mutant =
        List.fold_left
          (fun s m -> if s = "" then s else audit_mutate s m)
          log ms
      in
      match Obs.Audit.verify_string ~key:audit_test_key mutant with
      | Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Abnormal-exit flushing: exports stay well-formed after a raise      *)
(* ------------------------------------------------------------------ *)

let test_finalize_on_abnormal_exit () =
  let obs = Obs.Emitter.create () in
  let rec_ = Obs.Chrome.attach obs (Obs.Chrome.create ()) in
  let attrib = Obs.Attrib.attach obs (Obs.Attrib.create ()) in
  Obs.Emitter.add_finalizer obs (fun ~now -> Obs.Attrib.close attrib ~now);
  let chain = Obs.Audit.create ~key:audit_test_key in
  Obs.Emitter.set_audit obs (Some chain);
  let m =
    Sim.Machine.create ~frames:32768 ~cma_frames:4096 ~obs
      ~setting:Sim.Config.Erebor_full ()
  in
  let boom (_ : Sim.Machine.ops) = raise Exit in
  (match Sim.Machine.run m (small_spec ~body:boom ()) with
  | _ -> Alcotest.fail "expected the body to raise"
  | exception Exit -> ());
  (* The exception handler path: flush everything exactly once. *)
  let now = Hw.Cycles.now (Sim.Machine.clock m) in
  Obs.Emitter.finalize obs ~now;
  Obs.Emitter.finalize obs ~now (* idempotent *);
  Alcotest.(check bool) "emitter finalized" true (Obs.Emitter.finalized obs);
  (* Chrome export balanced despite the mid-run raise. *)
  let json = Obs.Chrome.to_chrome_json rec_ in
  Alcotest.(check int) "every B closed" (count_sub ~sub:{|"ph":"B"|} json)
    (count_sub ~sub:{|"ph":"E"|} json);
  let module J = Workloads.Bench_gate.Json in
  (match J.parse json with
  | Error e -> Alcotest.failf "chrome export does not parse: %s" e
  | Ok _ -> ());
  (* Attribution closed by the registered finalizer: conservation holds. *)
  Alcotest.(check int) "attrib closed" 0 (Obs.Attrib.open_depth attrib);
  Alcotest.(check int) "attrib covers the aborted run" now
    (Obs.Attrib.total attrib);
  (* The audit chain was finalized, so it verifies offline. *)
  Alcotest.(check bool) "chain finalized" true (Obs.Audit.finalized chain);
  match Obs.Audit.verify_string ~key:audit_test_key (Obs.Audit.to_string chain) with
  | Ok n -> Alcotest.(check bool) "decisions recorded before the raise" true (n > 0)
  | Error e -> Alcotest.failf "aborted run's chain rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Sliding windows: rotation, merged percentiles, allocation-free path *)
(* ------------------------------------------------------------------ *)

let test_window_rotation () =
  let w = Obs.Window.create ~width:100 ~buckets:4 () in
  Obs.Window.record w Obs.Trace.Syscall ~ts:10 ~arg:5;
  Obs.Window.record w Obs.Trace.Syscall ~ts:50 ~arg:7;
  Alcotest.(check int) "current bucket" 2
    (Obs.Window.count w ~windows:1 Obs.Trace.Syscall);
  Alcotest.(check int) "arg sum" 12
    (Obs.Window.arg_sum w ~windows:1 Obs.Trace.Syscall);
  Obs.Window.record w Obs.Trace.Syscall ~ts:150 ~arg:1;
  Alcotest.(check int) "rotated bucket holds one" 1
    (Obs.Window.count w ~windows:1 Obs.Trace.Syscall);
  Alcotest.(check int) "ring holds all three" 3
    (Obs.Window.count w Obs.Trace.Syscall);
  Obs.Window.record w Obs.Trace.Syscall ~ts:250 ~arg:1;
  Obs.Window.record w Obs.Trace.Syscall ~ts:350 ~arg:1;
  (* The ring is full; the next bucket evicts [0, 100) and its 2 events. *)
  Obs.Window.record w Obs.Trace.Syscall ~ts:450 ~arg:1;
  Alcotest.(check int) "oldest bucket aged out" 4
    (Obs.Window.count w Obs.Trace.Syscall);
  Alcotest.(check int) "lifetime total unaffected" 6
    (Obs.Window.total_count w Obs.Trace.Syscall);
  (* A gap longer than the whole ring clears it in one pass and keeps
     bucket alignment relative to the old start. *)
  Obs.Window.record w Obs.Trace.Syscall ~ts:1_000_000 ~arg:1;
  Alcotest.(check int) "big gap cleared the ring" 1
    (Obs.Window.count w Obs.Trace.Syscall);
  Obs.Window.record w Obs.Trace.Syscall ~ts:1_000_050 ~arg:1;
  Alcotest.(check int) "aligned bucket after the jump" 2
    (Obs.Window.count w ~windows:1 Obs.Trace.Syscall);
  Alcotest.(check int) "lifetime total spans the gap" 8
    (Obs.Window.total_count w Obs.Trace.Syscall);
  (match Obs.Window.count w ~windows:0 Obs.Trace.Syscall with
  | _ -> Alcotest.fail "windows = 0 must be rejected"
  | exception Invalid_argument _ -> ());
  match Obs.Window.create ~width:0 ~buckets:4 () with
  | _ -> Alcotest.fail "width = 0 must be rejected"
  | exception Invalid_argument _ -> ()

let test_window_percentile () =
  let w = Obs.Window.create ~width:100 ~buckets:8 () in
  let pct ?windows p = Obs.Window.percentile w ?windows Obs.Trace.Req_end ~p in
  Alcotest.(check int) "empty window" 0 (pct 0.5);
  Obs.Window.record w Obs.Trace.Req_end ~ts:10 ~arg:9;
  Alcotest.(check int) "single sample p50 exact" 9 (pct 0.5);
  Alcotest.(check int) "single sample p0" 9 (pct 0.0);
  Alcotest.(check int) "single sample p100" 9 (pct 1.0);
  Obs.Window.record w Obs.Trace.Req_end ~ts:150 ~arg:100;
  Obs.Window.record w Obs.Trace.Req_end ~ts:160 ~arg:100;
  Obs.Window.record w Obs.Trace.Req_end ~ts:250 ~arg:1000;
  (* Merged over {9, 100, 100, 1000}: the p50 rank lands in the 100s'
     log2 bucket [64, 127] and interpolates to 96. *)
  Alcotest.(check int) "merge-on-read p50" 96 (pct 0.5);
  Alcotest.(check int) "merged p0 clamps to observed min" 9 (pct 0.0);
  Alcotest.(check int) "merged p100 clamps to observed max" 1000 (pct 1.0);
  Alcotest.(check int) "current bucket only: single sample" 1000
    (pct ~windows:1 0.5);
  Alcotest.(check int) "two-bucket merge min" 100 (pct ~windows:2 0.0);
  Alcotest.(check int) "over is log2-conservative" 1
    (Obs.Window.over w Obs.Trace.Req_end ~threshold:128);
  match Obs.Window.percentile w Obs.Trace.Syscall ~p:0.5 with
  | _ -> Alcotest.fail "untracked kind must be rejected"
  | exception Invalid_argument _ -> ()

(* The record path (rotation included) must not allocate: the live sink
   rides inside the machine's hot event loop. The slack absorbs the boxed
   floats from the Gc counter reads themselves. *)
let test_window_record_allocation_free () =
  let w = Obs.Window.create ~width:100 ~buckets:16 () in
  let spin () =
    for i = 1 to 10_000 do
      Obs.Window.record w Obs.Trace.Req_end ~ts:(i * 37) ~arg:(i land 1023)
    done;
    Obs.Window.record w Obs.Trace.Emc_entry ~ts:10_000_000 ~arg:7
  in
  spin ();
  let before = Gc.minor_words () in
  spin ();
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "record allocates nothing (%.0f words)" delta)
    true (delta <= 32.0)

(* ------------------------------------------------------------------ *)
(* The sink-transparency law                                          *)
(* ------------------------------------------------------------------ *)

(* The sink-transparency law, stated once: whatever subset of lib/obs's
   sinks is attached, a run is cycle- and statistics-identical to the bare
   run of the same spec — observability never advances the virtual clock.
   (bench check holds the same law over the Table 3/4 anchors and a
   Fig. 9 cell through Bench_gate.transparent.) *)
let law_run attach =
  let obs = Obs.Emitter.create () in
  attach obs;
  let m =
    Sim.Machine.create ~frames:32768 ~cma_frames:4096 ~obs
      ~setting:Sim.Config.Erebor_full ()
  in
  let r = Sim.Machine.run m (small_spec ~body:rich_body ()) in
  ( r.Sim.Machine.init_cycles,
    r.Sim.Machine.run_cycles,
    Hw.Cycles.now (Sim.Machine.clock m),
    Sim.Machine.snapshot m )

let prop_sink_law =
  let sinks = Workloads.Bench_gate.sinks in
  let subset mask = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) sinks in
  let bare = lazy (law_run ignore) in
  QCheck.Test.make ~name:"any sink subset leaves cycles + stats unchanged"
    ~count:12
    (QCheck.make
       ~print:(fun mask -> String.concat "+" (List.map fst (subset mask)))
       QCheck.Gen.(int_bound ((1 lsl List.length sinks) - 1)))
    (fun mask ->
      law_run (fun obs -> List.iter (fun (_, attach) -> attach obs) (subset mask))
      = Lazy.force bare)

(* ------------------------------------------------------------------ *)
(* Journal: flight-recorder round trips, corruption, offline engines   *)
(* ------------------------------------------------------------------ *)

let journal_path name = Printf.sprintf ".test-journal-%s.ejrn" name
let rm_journal path = try Sys.remove path with Sys_error _ -> ()

(* Write a two-machine event list [(stream01, kind, ts, arg); ...] and
   finalize; returns nothing (read it back through the public reader). *)
let write_journal ?(segment_bytes = 512) ?(meta = []) ~path evs =
  let w = Obs.Journal.Writer.create ~segment_bytes ~meta ~path () in
  let s0 = Obs.Journal.Writer.stream w ~machine:"alpha" in
  let s1 = Obs.Journal.Writer.stream w ~machine:"beta" in
  let last = ref 0 in
  List.iter
    (fun (st, kind, ts, arg) ->
      Obs.Journal.Writer.record w
        ~stream:(if st = 0 then s0 else s1)
        kind ~ts ~arg;
      if ts > !last then last := ts)
    evs;
  Obs.Journal.Writer.close w ~now:!last

let read_journal ?strict path =
  match Obs.Journal.read ?strict ~path () with
  | Ok (evs, info) -> (evs, info)
  | Error e -> Alcotest.failf "journal read: %s" e

(* Random event streams survive the delta/varint codec bit for bit:
   arbitrary kinds, non-monotone timestamps (negative deltas stress the
   zigzag path), full-range arguments, interleaved streams, and a segment
   size small enough that every run seals several segments. *)
let prop_journal_roundtrip =
  QCheck.Test.make ~name:"journal roundtrip = identity" ~count:60
    QCheck.(
      list_of_size
        Gen.(0 -- 400)
        (quad (int_bound 1) (int_bound (Obs.Trace.n_kinds - 1))
           (int_range (-50) 5_000) QCheck.int))
    (fun raw ->
      let path = journal_path "prop" in
      let _, evs =
        List.fold_left
          (fun (ts, acc) (st, ki, dts, arg) ->
            let ts = Stdlib.max 0 (ts + dts) in
            (ts, (st, Obs.Trace.kind_of_index ki, ts, arg) :: acc))
          (0, []) raw
      in
      let evs = List.rev evs in
      write_journal ~path evs;
      let got, info = read_journal path in
      rm_journal path;
      info.Obs.Journal.complete
      && info.Obs.Journal.events = List.length evs
      && List.length got = List.length evs
      && List.for_all2
           (fun (st, k, ts, arg) (e : Obs.Journal.event) ->
             e.Obs.Journal.stream = st
             && e.Obs.Journal.kind = k
             && e.Obs.Journal.ts = ts
             && e.Obs.Journal.arg = arg)
           evs got)

let sample_events n =
  List.init n (fun i ->
      (i mod 2, Obs.Trace.Page_fault, i * 10, (i land 7) * 4096))

let expect_journal_error name path ~msg_frag =
  match Obs.Journal.read ~path () with
  | Ok _ -> Alcotest.failf "%s: corruption accepted" name
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names the cause (%S in %S)" name msg_frag e)
        true
        (contains ~sub:msg_frag e)

let test_journal_corruption_rejected () =
  let path = journal_path "corrupt" in
  write_journal ~path (sample_events 300);
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let write_raw s =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)
  in
  (* Bit-flip inside the last frame's payload: CRC mismatch, named frame. *)
  let flipped = Bytes.of_string raw in
  let k = Bytes.length flipped - 1 in
  Bytes.set flipped k (Char.chr (Char.code (Bytes.get flipped k) lxor 1));
  write_raw (Bytes.to_string flipped);
  expect_journal_error "bit flip" path ~msg_frag:"CRC mismatch";
  expect_journal_error "bit flip frame id" path ~msg_frag:"frame";
  (* Trailing data after the END frame is never silently ignored: a whole
     duplicated frame is "data after END", junk bytes are an unknown tag.
     Find the last frame by walking the header chain (magic is 6 bytes,
     each frame is 12 header bytes + a LE u32 payload length). *)
  let last_frame =
    let u32 off =
      Char.code raw.[off]
      lor (Char.code raw.[off + 1] lsl 8)
      lor (Char.code raw.[off + 2] lsl 16)
      lor (Char.code raw.[off + 3] lsl 24)
    in
    let rec walk off =
      let next = off + 12 + u32 (off + 4) in
      if next >= String.length raw then off else walk next
    in
    walk 6
  in
  write_raw (raw ^ String.sub raw last_frame (String.length raw - last_frame));
  expect_journal_error "data after END" path ~msg_frag:"data after END";
  write_raw (raw ^ "XXXXXXXXXXXX");
  expect_journal_error "junk after END" path ~msg_frag:"unknown tag";
  (* A clobbered magic fails before any decoding. *)
  write_raw ("X" ^ String.sub raw 1 (String.length raw - 1));
  expect_journal_error "bad magic" path ~msg_frag:"bad magic";
  (* A tail cut mid-frame is tolerated by default (sealed segments remain
     readable, [complete = false]) and a precise error under [~strict]. *)
  write_raw (String.sub raw 0 (String.length raw - 3));
  let evs, info = read_journal path in
  Alcotest.(check bool) "truncated tail: not finalized" false
    info.Obs.Journal.complete;
  Alcotest.(check int) "truncated tail: sealed events intact" 300
    (List.length evs);
  (match Obs.Journal.read ~strict:true ~path () with
  | Ok _ -> Alcotest.fail "strict read accepted a truncated file"
  | Error e ->
      Alcotest.(check bool) "strict truncation error" true
        (contains ~sub:"mid-frame" e || contains ~sub:"mid-header" e
        || contains ~sub:"never finalized" e));
  rm_journal path

let test_journal_kill_mid_run () =
  let path = journal_path "killed" in
  let w = Obs.Journal.Writer.create ~segment_bytes:512 ~path () in
  let s = Obs.Journal.Writer.stream w ~machine:"sim" in
  let evs = sample_events 2000 in
  List.iter
    (fun (_, kind, ts, arg) -> Obs.Journal.Writer.record w ~stream:s kind ~ts ~arg)
    evs;
  (* No close: the process "died". Sealed segments were flushed frame by
     frame, so the file is readable up to the last seal. *)
  Alcotest.(check bool) "several segments sealed" true
    (Obs.Journal.Writer.segments w > 2);
  let got, info = read_journal path in
  Alcotest.(check bool) "not finalized" false info.Obs.Journal.complete;
  Alcotest.(check int) "sealed segments readable" info.Obs.Journal.segments
    (Obs.Journal.Writer.segments w);
  Alcotest.(check bool) "a true prefix survives" true
    (List.length got > 0 && List.length got < 2000);
  List.iteri
    (fun i (e : Obs.Journal.event) ->
      let _, k, ts, arg = List.nth evs i in
      Alcotest.(check bool) "prefix event intact" true
        (e.Obs.Journal.kind = k && e.Obs.Journal.ts = ts
        && e.Obs.Journal.arg = arg))
    got;
  Obs.Journal.Writer.close w ~now:0;
  rm_journal path

(* The journal is a complete, faithful recording: a snapshot rebuilt purely
   from replaying it equals the machine's live counter-derived snapshot. *)
let test_journal_snapshot_replay () =
  let path = journal_path "snapshot" in
  let obs = Obs.Emitter.create () in
  let w = Obs.Journal.Writer.create ~path () in
  let m =
    Sim.Machine.create ~obs ~journal:w ~frames:32768 ~cma_frames:4096
      ~setting:Sim.Config.Erebor_full ()
  in
  ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
  let snap = Sim.Machine.snapshot m in
  let now = Hw.Cycles.now (Sim.Machine.clock m) in
  Obs.Emitter.finalize obs ~now;
  let robs = Obs.Emitter.create () in
  let rc = Obs.Counter.attach robs (Obs.Counter.create ()) in
  let info =
    match
      Obs.Journal.fold ~path ~init:() (fun () (e : Obs.Journal.event) ->
          Obs.Emitter.emit robs e.Obs.Journal.kind ~ts:e.Obs.Journal.ts
            ~arg:e.Obs.Journal.arg)
    with
    | Ok ((), info) -> info
    | Error e -> Alcotest.failf "replay: %s" e
  in
  Alcotest.(check bool) "finalized by emitter finalizer" true
    info.Obs.Journal.complete;
  Alcotest.(check int) "final timestamp = machine clock" now
    info.Obs.Journal.last_ts;
  let c k = Obs.Counter.count rc k in
  List.iter
    (fun (label, k, expected) -> Alcotest.(check int) label expected (c k))
    [
      ("page faults", Obs.Trace.Page_fault, snap.Sim.Stats.page_faults);
      ("timer irqs", Obs.Trace.Timer_irq, snap.Sim.Stats.timer_irqs);
      ("ve exits", Obs.Trace.Ve_exit, snap.Sim.Stats.ve_exits);
      ("syscalls", Obs.Trace.Syscall, snap.Sim.Stats.syscalls);
      ("emc total", Obs.Trace.Emc_entry, snap.Sim.Stats.emc_total);
      ("emc mmu", Obs.Trace.emc_mmu, snap.Sim.Stats.emc_mmu);
      ("emc cr", Obs.Trace.emc_cr, snap.Sim.Stats.emc_cr);
      ("emc msr", Obs.Trace.emc_msr, snap.Sim.Stats.emc_msr);
      ("emc idt", Obs.Trace.emc_idt, snap.Sim.Stats.emc_idt);
      ("emc smap", Obs.Trace.emc_smap, snap.Sim.Stats.emc_smap);
      ("emc ghci", Obs.Trace.emc_ghci, snap.Sim.Stats.emc_ghci);
      ("ctx switches", Obs.Trace.Context_switch, snap.Sim.Stats.context_switches);
      ("denies", Obs.Trace.Mmu_deny, snap.Sim.Stats.mmu_denies);
    ];
  rm_journal path

(* Journal replay is the only producer of Chrome-trace and flamegraph
   files, so it must reproduce them byte for byte: a live Chrome recorder
   and a live Attrib on the recorded emitter against fresh sinks fed by
   [Journal.replay], wired the way `journal export` wires them. The live
   emitter is finalized [tail] cycles after the machine's last event. *)
let replay_exports ~tail =
  let path = journal_path "exports" in
  let obs = Obs.Emitter.create () in
  let w = Obs.Journal.Writer.create ~path () in
  Obs.Journal.Writer.attach ~machine:"sim" w obs;
  let chrome = Obs.Chrome.attach obs (Obs.Chrome.create ()) in
  let att = Obs.Attrib.attach obs (Obs.Attrib.create ()) in
  Obs.Emitter.add_finalizer obs (fun ~now -> Obs.Attrib.close att ~now);
  let m =
    Sim.Machine.create ~obs ~frames:32768 ~cma_frames:4096
      ~setting:Sim.Config.Erebor_full ()
  in
  ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
  Obs.Emitter.finalize obs ~now:(Hw.Cycles.now (Sim.Machine.clock m) + tail);
  let rchrome = Obs.Chrome.create () and ratt = Obs.Attrib.create () in
  let stream ~machine:_ =
    let em = Obs.Emitter.create () in
    ignore (Obs.Chrome.attach em rchrome);
    ignore (Obs.Attrib.attach em ratt);
    Obs.Emitter.add_finalizer em (fun ~now -> Obs.Attrib.close ratt ~now);
    em
  in
  (match Obs.Journal.replay ~path stream with
  | Ok info ->
      Alcotest.(check bool) "journal finalized" true info.Obs.Journal.complete
  | Error e -> Alcotest.failf "replay: %s" e);
  rm_journal path;
  (chrome, att, rchrome, ratt)

let test_journal_replay_reproduces_exports () =
  let chrome, att, rchrome, ratt = replay_exports ~tail:0 in
  Alcotest.(check bool) "spans recorded" true (Obs.Attrib.breakdown att <> []);
  Alcotest.(check int) "same event count" (Obs.Chrome.length chrome)
    (Obs.Chrome.length rchrome);
  Alcotest.(check string) "chrome JSON byte-equal"
    (Obs.Chrome.to_chrome_json chrome)
    (Obs.Chrome.to_chrome_json rchrome);
  Alcotest.(check string) "collapsed stacks byte-equal"
    (Obs.Flame.collapsed att) (Obs.Flame.collapsed ratt)

(* A live close later than the last event charges the tail to the root;
   the replay closes at the END frame's time, so it charges the same. *)
let test_journal_replay_close_time () =
  let _, att, _, ratt = replay_exports ~tail:1_000 in
  Alcotest.(check string) "collapsed stacks byte-equal"
    (Obs.Flame.collapsed att) (Obs.Flame.collapsed ratt)

(* A small hand-built single-stream scenario shared by the three offline
   engines: boot span, then one request whose window covers a Run span
   with a nested page-fault handler, closing 20 cycles after Run ends.

     boot [0,100]   req [100,220]   run [100,200]   pf [150,170]  *)
let scenario_a =
  let req_arg = 7 in
  [
    (0, Obs.Trace.span_begin Obs.Trace.Boot, 0, 0);
    (0, Obs.Trace.span_end Obs.Trace.Boot, 100, 0);
    (0, Obs.Trace.Req_begin, 100, req_arg);
    (0, Obs.Trace.span_begin Obs.Trace.Run, 100, 0);
    (0, Obs.Trace.Page_fault, 150, 4096);
    (0, Obs.Trace.span_begin Obs.Trace.Pf_handler, 150, 0);
    (0, Obs.Trace.span_end Obs.Trace.Pf_handler, 170, 0);
    (0, Obs.Trace.Page_fault, 180, 12288);
    (0, Obs.Trace.span_end Obs.Trace.Run, 200, 0);
    (0, Obs.Trace.Req_end, 220, req_arg);
  ]

let test_journal_query () =
  let path = journal_path "query" in
  write_journal ~path scenario_a;
  (* By_kind: page faults aggregate count / arg-sum / extrema. *)
  (match Obs.Query.run ~path () with
  | Error e -> Alcotest.failf "query: %s" e
  | Ok (rows, _) -> (
      match
        List.find_opt
          (fun (r : Obs.Query.row) -> r.Obs.Query.label = "page_fault")
          rows
      with
      | None -> Alcotest.fail "no page_fault row"
      | Some r ->
          Alcotest.(check int) "pf count" 2 r.Obs.Query.count;
          Alcotest.(check int) "pf arg sum" 16384 r.Obs.Query.sum;
          Alcotest.(check int) "pf min" 4096 r.Obs.Query.min;
          Alcotest.(check int) "pf max" 12288 r.Obs.Query.max));
  (* Kind + time-range filter composes. *)
  (match
     Obs.Query.run
       ~filter:
         {
           Obs.Query.no_filter with
           Obs.Query.kinds = [ Obs.Trace.Page_fault ];
           t0 = Some 160;
         }
       ~path ()
   with
  | Error e -> Alcotest.failf "filtered query: %s" e
  | Ok (rows, _) ->
      Alcotest.(check int) "one row" 1 (List.length rows);
      let r = List.hd rows in
      Alcotest.(check int) "one late fault" 1 r.Obs.Query.count;
      Alcotest.(check int) "its arg" 12288 r.Obs.Query.sum);
  (* By_phase: inclusive span durations per phase. *)
  (match Obs.Query.run ~group:Obs.Query.By_phase ~path () with
  | Error e -> Alcotest.failf "phase query: %s" e
  | Ok (rows, _) ->
      Alcotest.(check int) "three phases" 3 (List.length rows);
      let sums =
        List.map (fun (r : Obs.Query.row) -> r.Obs.Query.sum) rows
        |> List.sort Stdlib.compare
      in
      Alcotest.(check (list int)) "boot/run inclusive, pf nested" [ 20; 100; 100 ]
        sums);
  rm_journal path

let test_journal_critical () =
  let path = journal_path "critical" in
  write_journal ~path scenario_a;
  (match Obs.Critical.analyze ~path () with
  | Error e -> Alcotest.failf "critical: %s" e
  | Ok (rep, _) ->
      Alcotest.(check int) "one request" 1 rep.Obs.Critical.n;
      let r = List.hd rep.Obs.Critical.requests in
      Alcotest.(check int) "session id" 7 r.Obs.Critical.id;
      Alcotest.(check int) "total latency" 120 r.Obs.Critical.total;
      Alcotest.(check int) "service = run overlap" 100 r.Obs.Critical.service;
      Alcotest.(check int) "queueing = remainder" 20 r.Obs.Critical.queueing;
      (match r.Obs.Critical.path with
      | [ a; b ] ->
          Alcotest.(check bool) "dominant blame user:run 80" true
            (a.Obs.Critical.bphase = Obs.Trace.Run
            && a.Obs.Critical.bdomain = Obs.Trace.User
            && a.Obs.Critical.bcycles = 80);
          Alcotest.(check bool) "nested blame kernel:pf 20" true
            (b.Obs.Critical.bphase = Obs.Trace.Pf_handler
            && b.Obs.Critical.bdomain = Obs.Trace.Kernel
            && b.Obs.Critical.bcycles = 20)
      | p -> Alcotest.failf "expected 2 blame entries, got %d" (List.length p)));
  rm_journal path

(* Windows pair by the markers' argument, so sessions that overlap on one
   stream each get their own window, whatever order they close in. *)
let test_journal_critical_interleaved () =
  let path = journal_path "interleaved" in
  write_journal ~path
    [
      (0, Obs.Trace.Req_begin, 100, 1);
      (0, Obs.Trace.Req_begin, 110, 2);
      (0, Obs.Trace.Req_end, 150, 1);
      (0, Obs.Trace.Req_end, 200, 2);
      (0, Obs.Trace.Req_end, 210, 3);
    ];
  (match Obs.Critical.analyze ~path () with
  | Error e -> Alcotest.failf "critical: %s" e
  | Ok (rep, _) ->
      Alcotest.(check int) "two windows (an unopened end is ignored)" 2
        rep.Obs.Critical.n;
      Alcotest.(check (list (pair int int))) "slowest first, by session"
        [ (2, 90); (1, 50) ]
        (List.map
           (fun (r : Obs.Critical.request) -> (r.Obs.Critical.id, r.Obs.Critical.total))
           rep.Obs.Critical.requests));
  rm_journal path

(* Under Erebor_full the machine brackets each sandboxed session with one
   pair of markers, from the client's handshake to the sealed response, so
   [journal critical] over a recorded run counts exactly one window. The
   expected total is read off the session's own events: the handshake's
   attest span opens it and the response's Channel_send closes it. *)
let test_journal_critical_one_window_per_session () =
  let path = journal_path "session" in
  let obs = Obs.Emitter.create () in
  let opened = ref (-1) and closed = ref (-1) in
  Obs.Emitter.attach obs
    ~kinds:Obs.Trace.[ span_begin Attest; Channel_send ]
    (fun kind ~ts ~arg:_ ->
      if kind = Obs.Trace.Channel_send then closed := ts else opened := ts);
  let w = Obs.Journal.Writer.create ~path () in
  let m =
    Sim.Machine.create ~obs ~journal:w ~frames:32768 ~cma_frames:4096
      ~setting:Sim.Config.Erebor_full ()
  in
  ignore (Sim.Machine.run m (small_spec ~body:rich_body ()));
  Obs.Emitter.finalize obs ~now:(Hw.Cycles.now (Sim.Machine.clock m));
  (match Obs.Critical.analyze ~path () with
  | Error e -> Alcotest.failf "critical: %s" e
  | Ok (rep, _) -> (
      Alcotest.(check int) "one window per session" 1 rep.Obs.Critical.n;
      match rep.Obs.Critical.requests with
      | [ r ] ->
          Alcotest.(check bool) "window opened and closed" true
            (!opened >= 0 && !closed > !opened);
          Alcotest.(check int) "window = client handshake to sealed response"
            (!closed - !opened) r.Obs.Critical.total
      | rs -> Alcotest.failf "expected 1 window, got %d" (List.length rs)));
  rm_journal path

let test_journal_diff () =
  let path_a = journal_path "diff-a" in
  let path_b = journal_path "diff-b" in
  write_journal ~path:path_a scenario_a;
  (* Self-diff is exactly silent. *)
  (match Obs.Diff.compare_files ~a:path_a ~b:path_a with
  | Error e -> Alcotest.failf "self diff: %s" e
  | Ok d ->
      Alcotest.(check bool) "all deltas zero" true
        (List.for_all
           (fun (e : Obs.Diff.entry) -> e.Obs.Diff.delta = 0)
           d.Obs.Diff.entries);
      Alcotest.(check int) "no regressions"
        0
        (List.length (Obs.Diff.regressions ~min_cycles:0 d)));
  (* Run B: the Run span stretches 100 extra user cycles — flagged. *)
  let scenario_b =
    List.map
      (fun (st, k, ts, arg) ->
        match k with
        | Obs.Trace.Span_end Obs.Trace.Run -> (st, k, 300, arg)
        | Obs.Trace.Req_end -> (st, k, 320, arg)
        | _ -> (st, k, ts, arg))
      scenario_a
  in
  write_journal ~path:path_b scenario_b;
  (match Obs.Diff.compare_files ~a:path_a ~b:path_b with
  | Error e -> Alcotest.failf "seeded diff: %s" e
  | Ok d ->
      let regs = Obs.Diff.regressions ~threshold:5.0 ~min_cycles:10 d in
      Alcotest.(check bool) "user/run regression flagged" true
        (List.exists
           (fun (e : Obs.Diff.entry) ->
             e.Obs.Diff.ephase = Obs.Trace.Run
             && e.Obs.Diff.edomain = Obs.Trace.User
             && e.Obs.Diff.delta = 100)
           regs));
  rm_journal path_a;
  rm_journal path_b

(* ------------------------------------------------------------------ *)
(* Quantile sketches: accuracy against the exact oracle               *)
(* ------------------------------------------------------------------ *)

(* The exact order statistic [quantile] targets: rank ceil(p * n),
   1-based, over the sorted stream. *)
let oracle_quantile sorted ~p =
  let n = Array.length sorted in
  let idx = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (idx - 1)))

let sketch_of vs =
  let s = Obs.Sketch.create () in
  List.iter (Obs.Sketch.record s) vs;
  s

let check_sketch_accuracy name values =
  let sk = sketch_of values in
  let sorted = Array.of_list (List.sort compare values) in
  List.iter
    (fun p ->
      let est = Obs.Sketch.quantile sk ~p in
      let exact = oracle_quantile sorted ~p in
      let bound =
        (Obs.Sketch.alpha *. float_of_int (abs exact)) +. 1.0
      in
      if float_of_int (abs (est - exact)) > bound then
        Alcotest.failf "%s: p=%.3f est %d vs exact %d (bound %.1f)" name p est
          exact bound)
    [ 0.01; 0.25; 0.50; 0.90; 0.95; 0.99; 0.999 ]

(* Deterministic LCG so the adversarial streams are reproducible. *)
let lcg seed =
  let s = ref seed in
  fun m ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod m

let test_sketch_accuracy_adversarial () =
  check_sketch_accuracy "constant" (List.init 1000 (fun _ -> 777));
  check_sketch_accuracy "single-sample" [ 42 ];
  check_sketch_accuracy "two-sample" [ 5; 5_000_000 ];
  check_sketch_accuracy "bimodal"
    (List.init 1000 (fun i -> if i mod 2 = 0 then 10 else 1_000_000));
  check_sketch_accuracy "uniform" (List.init 2048 (fun i -> i + 1));
  check_sketch_accuracy "zeros+positive"
    (List.init 600 (fun i -> if i mod 4 = 0 then 0 else i));
  let rand = lcg 987654321 in
  check_sketch_accuracy "heavy-tailed"
    (List.init 2000 (fun _ ->
         let e = rand 9 in
         let base = int_of_float (10.0 ** float_of_int e) in
         base + rand (max 1 base)))

(* Satellite: Obs.Histogram.percentile and Obs.Sketch.quantile must agree
   on identical streams — exactly on the pinned edges (empty, single
   sample, p <= 0, p >= 1), and within one log2 bucket band elsewhere
   (the histogram's own resolution). *)
let test_sketch_histogram_crosscheck () =
  let kind = Obs.Trace.Req_end in
  let rand = lcg 24681357 in
  let streams =
    [
      ("empty", []);
      ("single", [ 5000 ]);
      ("constant", List.init 300 (fun _ -> 123456));
      ("uniform", List.init 1000 (fun i -> i + 1));
      ("bimodal", List.init 500 (fun i -> if i mod 3 = 0 then 64 else 262144));
      ("random", List.init 800 (fun _ -> rand 1_000_000));
    ]
  in
  List.iter
    (fun (name, vs) ->
      let obs = Obs.Emitter.create () in
      let h = Obs.Histogram.attach obs (Obs.Histogram.create ()) in
      let sk = sketch_of vs in
      List.iter (fun v -> Obs.Emitter.emit obs kind ~ts:0 ~arg:v) vs;
      List.iter
        (fun p ->
          let hv = Obs.Histogram.percentile h kind ~p in
          let sv = Obs.Sketch.quantile sk ~p in
          if vs = [] || List.length vs = 1 || p <= 0.0 || p >= 1.0 then begin
            if hv <> sv then
              Alcotest.failf "%s: edge p=%.2f diverges (hist %d, sketch %d)"
                name p hv sv
          end
          else begin
            let bh = Obs.Histogram.bucket_of hv
            and bs = Obs.Histogram.bucket_of sv in
            if abs (bh - bs) > 1 then
              Alcotest.failf
                "%s: p=%.2f outside the log2 band (hist %d b%d, sketch %d b%d)"
                name p hv bh sv bs
          end)
        [ -0.5; 0.0; 0.25; 0.50; 0.95; 0.99; 1.0; 1.5 ])
    streams

(* escape_json round-trips through the JSON parser. *)
let prop_escape_json_roundtrip =
  QCheck.Test.make ~name:"escape_json roundtrip via parser" ~count:200
    QCheck.(
      string_gen
        (Gen.oneofl [ 'a'; '"'; '\\'; '\n'; '\r'; '\t'; '\001'; 'q' ]))
    (fun s ->
      let quoted = "\"" ^ Obs.Audit.escape_json s ^ "\"" in
      match Workloads.Bench_gate.Json.parse quoted with
      | Ok (Workloads.Bench_gate.Json.Str v) -> v = s
      | _ -> false)

(* Every kind has its own wire name: span begin/end twins and the syscall
   phase vs the Syscall kind used to share one, which merged query
   rows and duplicated OpenMetrics series. *)
let test_trace_names_injective () =
  let names = List.map Obs.Trace.name Obs.Trace.all in
  Alcotest.(check int) "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* Offline query percentiles are the live histogram's: the same events fed
   to a Histogram sink and to a journal give equal p50/p95/p99 for every
   kind (values chosen so rank interpolation lands mid-bucket, where
   truncating and rounding disagree). *)
let test_query_matches_histogram () =
  let path = journal_path "query-hist" in
  let obs = Obs.Emitter.create () in
  let hist = Obs.Histogram.attach obs (Obs.Histogram.create ()) in
  let w = Obs.Journal.Writer.create ~path () in
  Obs.Journal.Writer.attach ~machine:"sim" w obs;
  let rand = lcg 13579 in
  let ts = ref 0 in
  let emit kind arg =
    ts := !ts + 1 + rand 50;
    Obs.Emitter.emit obs kind ~ts:!ts ~arg
  in
  List.iter (fun v -> emit Obs.Trace.Tdcall v) [ 5000; 6000; 7000 ];
  for _ = 1 to 400 do
    emit Obs.Trace.Emc_entry (1024 + rand 5000);
    emit (Obs.Trace.span_begin Obs.Trace.Syscall_dispatch) 0;
    emit Obs.Trace.Syscall (rand 300);
    emit (Obs.Trace.span_end Obs.Trace.Syscall_dispatch) 0;
    emit Obs.Trace.Vmcall (rand 100_000)
  done;
  Obs.Emitter.finalize obs ~now:(!ts + 1);
  (match Obs.Query.run ~path () with
  | Error e -> Alcotest.failf "query: %s" e
  | Ok (rows, _) ->
      List.iter
        (fun kind ->
          let label = Obs.Trace.name kind in
          match
            List.find_opt (fun (r : Obs.Query.row) -> r.Obs.Query.label = label) rows
          with
          | None -> Alcotest.failf "no %s row" label
          | Some r ->
              Alcotest.(check int) (label ^ " count")
                (Obs.Histogram.count hist kind) r.Obs.Query.count;
              List.iter
                (fun (p, got) ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s p%g" label (100. *. p))
                    (Obs.Histogram.percentile hist kind ~p) got)
                [ (0.5, r.Obs.Query.p50); (0.95, r.Obs.Query.p95);
                  (0.99, r.Obs.Query.p99) ])
        [ Obs.Trace.Tdcall; Obs.Trace.Emc_entry; Obs.Trace.Syscall;
          Obs.Trace.Vmcall ]);
  rm_journal path

(* Stream ids are not bounded: with 257 machines, [--machine m0] counts m0
   alone (stream 256 must not alias onto stream 0), and replay builds one
   emitter per stream, named up front. *)
let test_query_many_machines () =
  let path = journal_path "many" in
  let w = Obs.Journal.Writer.create ~path () in
  let ids =
    Array.init 257 (fun i ->
        Obs.Journal.Writer.stream w ~machine:(Printf.sprintf "m%d" i))
  in
  Obs.Journal.Writer.record w ~stream:ids.(0) Obs.Trace.Syscall ~ts:1 ~arg:0;
  for i = 1 to 5 do
    Obs.Journal.Writer.record w ~stream:ids.(256) Obs.Trace.Syscall ~ts:(1 + i)
      ~arg:0
  done;
  Obs.Journal.Writer.close w ~now:10;
  (match
     Obs.Query.run ~group:Obs.Query.By_none
       ~filter:{ Obs.Query.no_filter with Obs.Query.machines = [ "m0" ] }
       ~path ()
   with
  | Error e -> Alcotest.failf "query: %s" e
  | Ok (rows, _) ->
      Alcotest.(check (list (pair string int))) "only m0's event"
        [ ("all", 1) ]
        (List.map (fun (r : Obs.Query.row) -> (r.Obs.Query.label, r.Obs.Query.count)) rows));
  let named = ref [] in
  (match
     Obs.Journal.replay ~path (fun ~machine ->
         named := machine :: !named;
         Obs.Emitter.create ())
   with
  | Error e -> Alcotest.failf "replay: %s" e
  | Ok _ ->
      Alcotest.(check (list string)) "one emitter per stream, in order"
        (List.init 257 (Printf.sprintf "m%d"))
        (List.rev !named));
  rm_journal path

(* A directory opens like a file but fails on the first read: every
   reader must turn that into [Error], never raise. *)
let test_journal_directory_is_error () =
  let dir = Filename.temp_dir "erebor-journal" "" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      (match Obs.Journal.fold ~path:dir ~init:() (fun () _ -> ()) with
      | Ok _ -> Alcotest.fail "fold accepted a directory"
      | Error _ -> ());
      match Obs.Journal.replay ~path:dir (fun ~machine:_ -> Obs.Emitter.create ()) with
      | Ok _ -> Alcotest.fail "replay accepted a directory"
      | Error _ -> ())

(* A 9-byte LEB128 varint whose last byte sets the 63-bit sign bit. *)
let negative_varint = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f"

(* One byte-level mutation of a blob: overwrite, splice in a sign-bit
   varint, or truncate. *)
let mutation_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun pos b -> `Set (pos, b)) nat (int_bound 255);
        map (fun pos -> `Splice pos) nat;
        map (fun pos -> `Cut pos) nat;
      ])

let mutate s m =
  let n = String.length s in
  if n = 0 then s
  else
    match m with
    | `Set (pos, b) ->
        let by = Bytes.of_string s in
        Bytes.set by (pos mod n) (Char.chr b);
        Bytes.to_string by
    | `Splice pos ->
        let pos = pos mod n in
        String.sub s 0 pos ^ negative_varint ^ String.sub s pos (n - pos)
    | `Cut pos -> String.sub s 0 (pos mod n)

let print_mutation = function
  | `Set (p, b) -> Printf.sprintf "set %d %d" p b
  | `Splice p -> Printf.sprintf "splice %d" p
  | `Cut p -> Printf.sprintf "cut %d" p

(* CRC-32 (IEEE) as the journal frames it, to re-seal mutated payloads. *)
let crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

let le32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF))

(* The (offset, tag, payload) chain of a journal's frames. *)
let journal_frames raw =
  let u32 off =
    Char.code raw.[off]
    lor (Char.code raw.[off + 1] lsl 8)
    lor (Char.code raw.[off + 2] lsl 16)
    lor (Char.code raw.[off + 3] lsl 24)
  in
  let rec walk off acc =
    if off + 12 > String.length raw then List.rev acc
    else
      let len = u32 (off + 4) in
      walk (off + 12 + len)
        ((off, String.sub raw off 4, String.sub raw (off + 12) len) :: acc)
  in
  walk 6 []

(* A mutated HEAD or SEGM payload, re-framed with a correct length and CRC
   so the mutation reaches the decoder: [fold] must still answer Ok or
   Error, strict or not. *)
let prop_journal_reader_total =
  let raw =
    lazy
      (let path = journal_path "mutant-src" in
       write_journal ~meta:[ ("workload", "w"); ("setting", "s") ] ~path
         (sample_events 120 @ scenario_a);
       let raw = In_channel.with_open_bin path In_channel.input_all in
       rm_journal path;
       raw)
  in
  QCheck.Test.make ~name:"journal reader: Ok or Error on re-sealed mutants"
    ~count:300
    QCheck.(
      make
        ~print:(fun (f, ms) ->
          Printf.sprintf "frame %d: %s" f
            (String.concat "; " (List.map print_mutation ms)))
        Gen.(pair nat (list_size (1 -- 3) mutation_gen)))
    (fun (f, ms) ->
      let raw = Lazy.force raw in
      let frames =
        List.filter (fun (_, tag, _) -> tag = "HEAD" || tag = "SEGM")
          (journal_frames raw)
      in
      let off, tag, orig = List.nth frames (f mod List.length frames) in
      let payload = List.fold_left mutate orig ms in
      let rest = off + 12 + String.length orig in
      let mutant =
        String.sub raw 0 off ^ tag
        ^ le32 (String.length payload)
        ^ le32 (crc32 payload) ^ payload
        ^ String.sub raw rest (String.length raw - rest)
      in
      let path = journal_path "mutant" in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc mutant);
      let total strict =
        match Obs.Journal.fold ~strict ~path ~init:() (fun () _ -> ()) with
        | Ok _ | Error _ -> true
      in
      let r = total false && total true in
      rm_journal path;
      r)

let () =
  Alcotest.run "obs"
    [
      ( "sinks",
        [
          Alcotest.test_case "emitter fanout" `Quick test_emitter_fanout;
          QCheck_alcotest.to_alcotest prop_emitter_routing;
          Alcotest.test_case "shared emitter: counter views" `Quick
            test_shared_emitter_views;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "with_span" `Quick test_with_span;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "counter sink mirrors legacy stats" `Quick
            test_counter_equivalence;
          Alcotest.test_case "emc_idt counted" `Quick test_emc_idt_counted;
          Alcotest.test_case "denial counts exact" `Quick test_denial_counts;
        ] );
      ( "trace",
        [
          Alcotest.test_case "golden-trace determinism" `Quick
            test_golden_trace_determinism;
          Alcotest.test_case "trace counts match snapshot" `Quick
            test_trace_counts_match_snapshot;
          Alcotest.test_case "kind names injective" `Quick
            test_trace_names_injective;
        ] );
      ( "percentile",
        [ Alcotest.test_case "interpolated percentiles" `Quick test_percentile ] );
      ( "chrome",
        [
          Alcotest.test_case "JSON escaping" `Quick test_chrome_escape;
          Alcotest.test_case "unbalanced spans" `Quick test_chrome_unbalanced;
        ] );
      ( "attrib",
        [
          Alcotest.test_case "span semantics" `Quick test_attrib_semantics;
          Alcotest.test_case "conservation on every setting" `Quick
            test_attrib_conservation;
        ] );
      ( "export",
        [
          Alcotest.test_case "flame collapsed" `Quick test_flame_export;
        ] );
      ( "audit",
        [
          Alcotest.test_case "chain roundtrip + close record" `Quick
            test_audit_chain_roundtrip;
          Alcotest.test_case "tampering rejected" `Quick
            test_audit_tamper_rejected;
          Alcotest.test_case "emitter audit rail" `Quick
            test_audit_emitter_rail;
          Alcotest.test_case "bad \\u escape is malformed" `Quick
            test_audit_bad_unicode_escape;
          QCheck_alcotest.to_alcotest prop_audit_verify_total;
        ] );
      ( "finalize",
        [
          Alcotest.test_case "abnormal exit flushes exports" `Quick
            test_finalize_on_abnormal_exit;
        ] );
      ( "window",
        [
          Alcotest.test_case "rotation + aging" `Quick test_window_rotation;
          Alcotest.test_case "merge-on-read percentiles" `Quick
            test_window_percentile;
          Alcotest.test_case "record path is allocation-free" `Quick
            test_window_record_allocation_free;
        ] );
      ( "live",
        [
          QCheck_alcotest.to_alcotest prop_sink_law;
        ] );
      ( "journal",
        [
          QCheck_alcotest.to_alcotest prop_journal_roundtrip;
          Alcotest.test_case "corruption rejected with precise errors" `Quick
            test_journal_corruption_rejected;
          Alcotest.test_case "kill mid-run: sealed prefix readable" `Quick
            test_journal_kill_mid_run;
          Alcotest.test_case "snapshot = journal replay" `Quick
            test_journal_snapshot_replay;
          Alcotest.test_case "query: filter + group-by" `Quick
            test_journal_query;
          Alcotest.test_case "critical path: queueing vs service" `Quick
            test_journal_critical;
          Alcotest.test_case "diff: self silent, slowdown flagged" `Quick
            test_journal_diff;
          Alcotest.test_case "query percentiles = live histogram" `Quick
            test_query_matches_histogram;
          Alcotest.test_case "directory path is an Error" `Quick
            test_journal_directory_is_error;
          Alcotest.test_case "query: 257 machines, no aliasing" `Quick
            test_query_many_machines;
          QCheck_alcotest.to_alcotest prop_journal_reader_total;
          Alcotest.test_case "critical: one window per session" `Quick
            test_journal_critical_one_window_per_session;
          Alcotest.test_case "critical: interleaved sessions pair by id" `Quick
            test_journal_critical_interleaved;
          Alcotest.test_case "replay reproduces chrome + flame exports" `Quick
            test_journal_replay_reproduces_exports;
          Alcotest.test_case "replay closes at the live close time" `Quick
            test_journal_replay_close_time;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "accuracy vs oracle (adversarial)" `Quick
            test_sketch_accuracy_adversarial;
          Alcotest.test_case "histogram cross-check" `Quick
            test_sketch_histogram_crosscheck;
        ] );
      ( "openmetrics",
        [
          QCheck_alcotest.to_alcotest prop_escape_json_roundtrip;
        ] );
    ]
