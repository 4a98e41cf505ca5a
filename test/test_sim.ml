(* Tests for the evaluation machine: cross-setting invariants, emergent
   cost ordering, statistics sanity. *)

let small_spec ?(sandboxed = true) ?(body = fun _ -> ()) ?(common = None) () =
  {
    Sim.Machine.name = "test";
    sandboxed;
    timer_hz = 1000;
    init_compute = 0;
    confined_bytes = 32 * 4096;
    nominal_confined_mb = 1;
    common;
    threads = 2;
    contention = 0.2;
    input = Bytes.of_string "test input data";
    output_bucket = 256;
    body;
  }

let echo_body (ops : Sim.Machine.ops) =
  let input = ops.Sim.Machine.recv_input () in
  ops.Sim.Machine.send_output (Bytes.cat (Bytes.of_string "echo:") input)

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let test_config_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "roundtrip" true
        (Sim.Config.of_name (Sim.Config.name s) = Some s))
    Sim.Config.all;
  Alcotest.(check bool) "unknown" true (Sim.Config.of_name "banana" = None);
  Alcotest.(check bool) "native has no monitor" false (Sim.Config.has_monitor Sim.Config.Native);
  Alcotest.(check bool) "full has everything" true
    (Sim.Config.emc_privops Sim.Config.Erebor_full
    && Sim.Config.interposes_exits Sim.Config.Erebor_full
    && Sim.Config.uses_libos Sim.Config.Erebor_full);
  Alcotest.(check bool) "ablation split" true
    (Sim.Config.emc_privops Sim.Config.Erebor_mmu
    && (not (Sim.Config.interposes_exits Sim.Config.Erebor_mmu))
    && (not (Sim.Config.emc_privops Sim.Config.Erebor_exit))
    && Sim.Config.interposes_exits Sim.Config.Erebor_exit)

(* ------------------------------------------------------------------ *)
(* Machine basics                                                      *)
(* ------------------------------------------------------------------ *)

let test_output_identical_across_settings () =
  (* The computation's result must not depend on the protection setting. *)
  let outputs =
    List.map
      (fun setting ->
        let r =
          Sim.Machine.run_fresh ~frames:32768 ~cma_frames:4096 ~setting
            (small_spec ~body:echo_body ())
        in
        Bytes.to_string r.Sim.Machine.output)
      Sim.Config.all
  in
  List.iter
    (fun o -> Alcotest.(check string) "same output" "echo:test input data" o)
    outputs

let test_native_has_no_emc () =
  let r =
    Sim.Machine.run_fresh ~frames:32768 ~cma_frames:4096 ~setting:Sim.Config.Native
      (small_spec ~body:echo_body ())
  in
  Alcotest.(check int) "no EMCs natively" 0 r.Sim.Machine.stats.Sim.Stats.emc_total

let test_full_pads_output () =
  let r =
    Sim.Machine.run_fresh ~frames:32768 ~cma_frames:4096 ~setting:Sim.Config.Erebor_full
      (small_spec ~body:echo_body ())
  in
  Alcotest.(check bool) "wire length >= bucket" true (r.Sim.Machine.wire_output_len >= 256);
  Alcotest.(check bool) "not killed" true (r.Sim.Machine.killed = None)

let test_benign_body_never_killed () =
  List.iter
    (fun setting ->
      let r =
        Sim.Machine.run_fresh ~frames:32768 ~cma_frames:4096 ~setting
          (small_spec
             ~body:(fun ops ->
               ops.Sim.Machine.compute 10_000_000;
               ops.Sim.Machine.cold_fault ();
               ops.Sim.Machine.host_io ~bytes:4096;
               ops.Sim.Machine.service ();
               ops.Sim.Machine.cpuid ();
               ops.Sim.Machine.sync_op ~contended:false;
               ops.Sim.Machine.pte_churn ~n:3;
               echo_body ops)
             ())
      in
      Alcotest.(check bool)
        (Sim.Config.name setting ^ " survives")
        true (r.Sim.Machine.killed = None))
    Sim.Config.all

let test_overhead_ordering () =
  (* Full Erebor must cost more than native; ablations in between. *)
  let spec () =
    small_spec
      ~body:(fun ops ->
        for _ = 1 to 50 do
          ops.Sim.Machine.cold_fault ();
          ops.Sim.Machine.host_io ~bytes:8192;
          ops.Sim.Machine.pte_churn ~n:10;
          ops.Sim.Machine.compute 1_000_000
        done)
      ()
  in
  let cycles setting =
    (Sim.Machine.run_fresh ~frames:32768 ~cma_frames:4096 ~setting (spec ())).Sim.Machine.run_cycles
  in
  let native = cycles Sim.Config.Native in
  let mmu = cycles Sim.Config.Erebor_mmu in
  let exit = cycles Sim.Config.Erebor_exit in
  let full = cycles Sim.Config.Erebor_full in
  Alcotest.(check bool) "native < exit" true (native < exit);
  Alcotest.(check bool) "native < mmu" true (native < mmu);
  Alcotest.(check bool) "mmu < full" true (mmu < full);
  Alcotest.(check bool) "exit < full" true (exit < full)

let test_timer_rate_emerges () =
  let spec =
    { (small_spec ~body:(fun ops -> ops.Sim.Machine.compute 2_100_000_000) ()) with
      Sim.Machine.timer_hz = 500 }
  in
  let r = Sim.Machine.run_fresh ~frames:32768 ~cma_frames:4096 ~setting:Sim.Config.Native spec in
  let rate = Sim.Stats.timer_rate r.Sim.Machine.stats in
  Alcotest.(check bool) "about 500 Hz" true (rate > 450.0 && rate < 550.0)

let test_cold_fault_sustains_pf () =
  let spec =
    small_spec
      ~body:(fun ops ->
        for _ = 1 to 200 do
          ops.Sim.Machine.cold_fault ()
        done)
      ()
  in
  let r = Sim.Machine.run_fresh ~frames:32768 ~cma_frames:4096 ~setting:Sim.Config.Native spec in
  (* 200 faults even though the region only has 32 pages: eviction works. *)
  Alcotest.(check bool) "sustained faults" true
    (r.Sim.Machine.stats.Sim.Stats.page_faults >= 200)

let test_init_overhead_positive_under_emc () =
  let native =
    Sim.Machine.run_fresh ~frames:32768 ~cma_frames:4096 ~setting:Sim.Config.Native
      (small_spec ())
  in
  let full =
    Sim.Machine.run_fresh ~frames:32768 ~cma_frames:4096 ~setting:Sim.Config.Erebor_full
      (small_spec ())
  in
  Alcotest.(check bool) "confined pinning costs more under Erebor" true
    (full.Sim.Machine.init_cycles > native.Sim.Machine.init_cycles)

let test_common_shared_across_runs () =
  (* Two sessions against the same machine share the common instance. *)
  let m = Sim.Machine.create ~frames:65536 ~cma_frames:8192 ~setting:Sim.Config.Erebor_exit () in
  let spec =
    small_spec ~common:(Some ("shared-db", 64 * 4096, 1))
      ~body:(fun ops ->
        for page = 0 to 63 do
          ops.Sim.Machine.touch_common ~page
        done)
      ()
  in
  let r1 = Sim.Machine.run m spec in
  let r2 = Sim.Machine.run m spec in
  Alcotest.(check int) "instance fully materialized" 64 r1.Sim.Machine.common_frames;
  Alcotest.(check int) "second run reuses the same frames" 64 r2.Sim.Machine.common_frames

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_diff () =
  let a = { Sim.Stats.zero with Sim.Stats.cycles = 100; page_faults = 5; seconds = 1.0 } in
  let b = { Sim.Stats.zero with Sim.Stats.cycles = 300; page_faults = 9; seconds = 3.0 } in
  let d = Sim.Stats.diff ~before:a ~after:b in
  Alcotest.(check int) "cycles" 200 d.Sim.Stats.cycles;
  Alcotest.(check int) "pf" 4 d.Sim.Stats.page_faults;
  Alcotest.(check (float 0.01)) "pf rate" 2.0 (Sim.Stats.pf_rate d);
  Alcotest.(check (float 0.01)) "zero-span rate" 0.0 (Sim.Stats.pf_rate Sim.Stats.zero)

(* ------------------------------------------------------------------ *)
(* Runner: domain-pool fan-out                                         *)
(* ------------------------------------------------------------------ *)

let test_runner_map_order () =
  let input = Array.init 50 Fun.id in
  let seq = Sim.Runner.map ~jobs:1 (fun i -> i * i) input in
  let par = Sim.Runner.map ~jobs:4 (fun i -> i * i) input in
  Alcotest.(check (array int)) "results land at input index" seq par;
  Alcotest.(check (list int)) "map_list" [ 1; 4; 9 ]
    (Sim.Runner.map_list ~jobs:3 (fun i -> i * i) [ 1; 2; 3 ]);
  Alcotest.(check (array int)) "empty input" [||] (Sim.Runner.map ~jobs:4 Fun.id [||])

let test_runner_error_propagates () =
  match
    Sim.Runner.map ~jobs:4
      (fun i -> if i = 7 then failwith "boom" else i)
      (Array.init 16 Fun.id)
  with
  | _ -> Alcotest.fail "expected Task_error"
  | exception Sim.Runner.Task_error (Failure msg) ->
      Alcotest.(check string) "original exception carried" "boom" msg

(* ------------------------------------------------------------------ *)
(* Determinism: parallel evaluation == sequential                      *)
(* ------------------------------------------------------------------ *)

(* The --jobs fan-out must be invisible in the results: every machine owns
   its state, so stats, outputs and the golden event trace are identical
   whether the settings run on one domain or eight. *)
let test_parallel_matches_sequential () =
  let run setting =
    let obs = Obs.Emitter.create () in
    let rec_ = Obs.Chrome.attach obs (Obs.Chrome.create ()) in
    let m = Sim.Machine.create ~obs ~frames:32768 ~cma_frames:4096 ~setting () in
    let r = Sim.Machine.run m (small_spec ~body:echo_body ()) in
    (r.Sim.Machine.stats, Bytes.to_string r.Sim.Machine.output, Obs.Chrome.to_chrome_json rec_)
  in
  let settings = Array.of_list Sim.Config.all in
  let seq = Array.map run settings in
  let par = Sim.Runner.map ~jobs:8 run settings in
  Array.iteri
    (fun i setting ->
      let name = Sim.Config.name setting in
      let s_stats, s_out, s_trace = seq.(i) in
      let p_stats, p_out, p_trace = par.(i) in
      Alcotest.(check bool) (name ^ ": stats identical") true (s_stats = p_stats);
      Alcotest.(check string) (name ^ ": output identical") s_out p_out;
      Alcotest.(check bool) (name ^ ": golden trace identical") true
        (String.equal s_trace p_trace))
    settings

let () =
  Alcotest.run "sim"
    [
      ("config", [ Alcotest.test_case "names/predicates" `Quick test_config_names ]);
      ( "machine",
        [
          Alcotest.test_case "output setting-independent" `Slow test_output_identical_across_settings;
          Alcotest.test_case "native emc-free" `Quick test_native_has_no_emc;
          Alcotest.test_case "full pads output" `Quick test_full_pads_output;
          Alcotest.test_case "benign survives" `Slow test_benign_body_never_killed;
          Alcotest.test_case "overhead ordering" `Slow test_overhead_ordering;
          Alcotest.test_case "timer rate" `Quick test_timer_rate_emerges;
          Alcotest.test_case "cold faults sustain" `Quick test_cold_fault_sustains_pf;
          Alcotest.test_case "init overhead" `Quick test_init_overhead_positive_under_emc;
          Alcotest.test_case "common shared" `Quick test_common_shared_across_runs;
        ] );
      ("stats", [ Alcotest.test_case "diff/rates" `Quick test_stats_diff ]);
      ( "runner",
        [
          Alcotest.test_case "map preserves order" `Quick test_runner_map_order;
          Alcotest.test_case "errors propagate" `Quick test_runner_error_propagates;
          Alcotest.test_case "parallel == sequential" `Slow test_parallel_matches_sequential;
        ] );
    ]
