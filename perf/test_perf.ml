(* The benchmark's own checks: its statistics, the seeded inputs, the
   reference check, and BENCHMARK.json against the metric tables. *)

open Perf_bench

let close = Alcotest.float 1e-9
let floats = List.map float_of_int

let test_median () =
  Alcotest.check close "even count takes the middle pair's mean" 2.5
    (Stats.median (floats [ 4; 1; 3; 2 ]));
  Alcotest.check close "odd count" 3.0 (Stats.median (floats [ 5; 3; 1 ]))

(* Reference values from Python's statistics.quantiles (method exclusive). *)
let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles (floats (List.init 10 succ)) in
  Alcotest.check close "q1 of 1..10" 2.75 q1;
  Alcotest.check close "q2 of 1..10" 5.5 q2;
  Alcotest.check close "q3 of 1..10" 8.25 q3;
  let q1, _, q3 = Stats.quartiles (floats [ 4; 2; 1; 3 ]) in
  Alcotest.check close "q1 of 1..4" 1.25 q1;
  Alcotest.check close "q3 of 1..4" 3.75 q3;
  Alcotest.check close "relative IQR of 1..10" 1.0 (Stats.rel_iqr (floats (List.init 10 succ)))

let test_p90 () =
  Alcotest.check close "p90 of 1..100" 90.9 (Stats.p90 (floats (List.init 100 succ)));
  Alcotest.(check bool) "99 samples leave fewer than 10 beyond p90" false (Stats.tail_ok ~pct:90 99);
  Alcotest.(check bool) "100 samples leave 10 beyond p90" true (Stats.tail_ok ~pct:90 100)

let test_payload () =
  let input = Bytes.of_string "translate to english: la memoire confinee " in
  let p seed = Items.payload_of ~seed ~program:"llama.cpp" input in
  Alcotest.(check bool) "same seed, same bytes" true (Bytes.equal (p 1) (p 1));
  Alcotest.(check bool) "another seed, other bytes" false (Bytes.equal (p 1) (p 2));
  Alcotest.(check int) "built-in length" (Bytes.length input) (Bytes.length (p 3));
  let tail b = Bytes.sub_string b (Bytes.length b - Items.kept_suffix) Items.kept_suffix in
  Alcotest.(check string) "trailing context kept" (tail input) (tail (p 4))

let test_verdict () =
  let v ?(better = Stats.Lower) ?(spread = 0.02) now =
    Stats.verdict_name (Stats.verdict ~better ~bound:0.10 ~spread ~base:1.0 ~now)
  in
  Alcotest.(check string) "within bound" "ok" (v 1.05);
  Alcotest.(check string) "faster" "ok" (v 0.5);
  Alcotest.(check string) "past bound" "regression" (v 1.2);
  Alcotest.(check string) "spread wider than bound" "unresolved" (v ~spread:0.2 1.2);
  Alcotest.(check string) "higher-is-better drop" "regression" (v ~better:Stats.Higher 0.8)

let item key =
  List.concat_map (fun (w : Items.workload) -> w.items) Items.workloads
  |> List.find (fun (i : Items.item) -> i.key = key)

let run ~seed key = Items.run ~seed ~tmp:"." (item key)

let test_seed_invariance () =
  let reference = Lazy.force Reference.committed in
  List.iter
    (fun key ->
      let a = run ~seed:1 key and b = run ~seed:2 key in
      Alcotest.(check bool) (key ^ ": seeds 1 and 2 agree") true (a.fields = b.fields);
      Alcotest.(check (option string)) (key ^ ": matches the reference") None
        (Reference.check reference key a.fields))
    [ "drugbank@erebor"; "llama.cpp@erebor" ]

let test_perturbed_reference () =
  let reference = Result.get_ok (Reference.of_string Reference_data.contents) in
  let target = "lmbench-signal@erebor" in
  let fields = Hashtbl.find reference target in
  Hashtbl.replace reference target
    (List.map (fun (f, v) -> if f = "run_cycles" then (f, v +. 1.0) else (f, v)) fields);
  let w = Option.get (Items.find_workload "kernel-io") in
  let failing =
    List.filter_map
      (fun (i : Items.item) ->
        let o = Items.run ~seed:1 ~tmp:"." i in
        Option.map (fun _ -> i.key) (Reference.check reference i.key o.fields))
      w.items
  in
  Alcotest.(check (list string)) "exactly the perturbed item fails" [ target ] failing

(* BENCHMARK.json must describe exactly the workloads and metrics the code
   reports. *)
module J = Workloads.Bench_gate.Json

let test_benchmark_json () =
  let doc =
    Result.get_ok (J.parse (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all))
  in
  let arr k = match J.member k doc with Some (J.Arr l) -> l | _ -> Alcotest.fail (k ^ " missing") in
  let str k o = match J.member k o with Some (J.Str s) -> s | _ -> Alcotest.fail (k ^ " missing") in
  let better = function Stats.Lower -> "lower" | Stats.Higher -> "higher" in
  Alcotest.(check (list (pair string string)))
    "workloads"
    (List.map (fun (w : Items.workload) -> (w.name, w.why)) Items.workloads)
    (List.map (fun o -> (str "name" o, str "why" o)) (arr "workloads"));
  Alcotest.(check (list (list string)))
    "end_to_end"
    (List.map
       (fun (m : Metrics.e2e) -> [ m.name; m.unit_; better m.better; Printf.sprintf "%g" m.bound ])
       Metrics.end_to_end)
    (List.map
       (fun o ->
         let bound = match J.member "bound" o with Some (J.Num b) -> b | _ -> nan in
         [ str "name" o; str "unit" o; str "better" o; Printf.sprintf "%g" bound ])
       (arr "end_to_end"));
  Alcotest.(check (list (list string)))
    "per_layer"
    (List.map
       (fun (n, u) -> [ n; u; (if List.mem n Metrics.higher_per_layer then "higher" else "lower") ])
       Metrics.per_layer)
    (List.map (fun o -> [ str "name" o; str "unit" o; str "better" o ]) (arr "per_layer"))

let () =
  Alcotest.run "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "p90 and tail rule" `Quick test_p90;
          Alcotest.test_case "payload" `Quick test_payload;
          Alcotest.test_case "verdict" `Quick test_verdict;
        ] );
      ( "reference",
        [
          Alcotest.test_case "seed invariance" `Quick test_seed_invariance;
          Alcotest.test_case "perturbed entry" `Quick test_perturbed_reference;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
        ] );
    ]
