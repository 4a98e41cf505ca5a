(* Tests for the workload algorithms (the real compute kernels) and the
   profile-driven spec builder. *)

let rng () = Crypto.Drbg.create ~seed:"workload tests"

(* ------------------------------------------------------------------ *)
(* LLM                                                                 *)
(* ------------------------------------------------------------------ *)

let test_llm_train_generate () =
  let model = Workloads.Llm.Model.train ~order:3 "abcabcabcabcabcabc" in
  Alcotest.(check bool) "has contexts" true (Workloads.Llm.Model.contexts model > 0);
  let text = Workloads.Llm.Model.generate model ~rng:(rng ()) ~prompt:"abc" ~n:12 in
  Alcotest.(check int) "length" 12 (String.length text);
  (* A purely periodic corpus generates the same period. *)
  String.iter (fun c -> if not (String.contains "abc" c) then Alcotest.fail "off-alphabet") text

let test_llm_deterministic_given_rng () =
  let model = Workloads.Llm.default_model in
  let a = Workloads.Llm.Model.generate model ~rng:(Crypto.Drbg.create ~seed:"x") ~prompt:"the " ~n:50 in
  let b = Workloads.Llm.Model.generate model ~rng:(Crypto.Drbg.create ~seed:"x") ~prompt:"the " ~n:50 in
  Alcotest.(check string) "deterministic" a b

let test_llm_rejects_bad_order () =
  Alcotest.check_raises "order 0" (Invalid_argument "Model.train: order must be >= 1")
    (fun () -> ignore (Workloads.Llm.Model.train ~order:0 "xyz"))

(* ------------------------------------------------------------------ *)
(* Retrieval hashmap                                                   *)
(* ------------------------------------------------------------------ *)

let test_hashmap_basic () =
  let h = Workloads.Retrieval.Hashmap.create ~capacity:64 in
  Workloads.Retrieval.Hashmap.put h "a" 1;
  Workloads.Retrieval.Hashmap.put h "b" 2;
  Workloads.Retrieval.Hashmap.put h "a" 3;
  Alcotest.(check (option int)) "get a" (Some 3) (Workloads.Retrieval.Hashmap.get h "a");
  Alcotest.(check (option int)) "get b" (Some 2) (Workloads.Retrieval.Hashmap.get h "b");
  Alcotest.(check (option int)) "miss" None (Workloads.Retrieval.Hashmap.get h "c");
  Alcotest.(check int) "length counts keys" 2 (Workloads.Retrieval.Hashmap.length h);
  Alcotest.(check bool) "probes counted" true (Workloads.Retrieval.Hashmap.probes h > 0)

let test_hashmap_rejects () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Hashmap.create: capacity must be a power of two") (fun () ->
      ignore (Workloads.Retrieval.Hashmap.create ~capacity:100))

let prop_hashmap_model =
  QCheck.Test.make ~name:"hashmap agrees with assoc list" ~count:100
    QCheck.(list (pair (string_of_size QCheck.Gen.(1 -- 8)) small_int))
    (fun kvs ->
      let kvs = List.filteri (fun i _ -> i < 40) kvs in
      let h = Workloads.Retrieval.Hashmap.create ~capacity:256 in
      List.iter (fun (k, v) -> Workloads.Retrieval.Hashmap.put h k v) kvs;
      List.for_all
        (fun (k, _) ->
          (* last binding wins, as in the map *)
          let expected = List.assoc k (List.rev kvs) in
          Workloads.Retrieval.Hashmap.get h k = Some expected)
        kvs)

let test_synthetic_db () =
  let db = Workloads.Retrieval.synthetic_db ~rng:(rng ()) ~entries:500 in
  Alcotest.(check int) "all inserted" 500 (Workloads.Retrieval.Hashmap.length db);
  match Workloads.Retrieval.Hashmap.get db (Workloads.Retrieval.drug_key 123) with
  | Some r -> Alcotest.(check string) "name" "compound-123" r.Workloads.Retrieval.name
  | None -> Alcotest.fail "missing record"

(* ------------------------------------------------------------------ *)
(* Graph / PageRank                                                    *)
(* ------------------------------------------------------------------ *)

let test_csr_structure () =
  let g = Workloads.Graph.Csr.of_edges ~nodes:4 [ (0, 1); (0, 2); (1, 2); (3, 0); (9, 1) ] in
  Alcotest.(check int) "nodes" 4 (Workloads.Graph.Csr.nodes g);
  Alcotest.(check int) "edges (oob dropped)" 4 (Workloads.Graph.Csr.edges g);
  Alcotest.(check int) "deg 0" 2 (Workloads.Graph.Csr.out_degree g 0);
  Alcotest.(check int) "deg 2 (sink)" 0 (Workloads.Graph.Csr.out_degree g 2)

let test_pagerank_properties () =
  let g = Workloads.Graph.Csr.synthetic ~rng:(rng ()) ~nodes:300 ~edges:3000 in
  let rank = Workloads.Graph.Csr.pagerank g ~iterations:20 ~damping:0.85 in
  let sum = Array.fold_left ( +. ) 0.0 rank in
  Alcotest.(check (float 0.01)) "ranks sum to 1" 1.0 sum;
  Array.iter (fun r -> if r < 0.0 then Alcotest.fail "negative rank") rank;
  let top = Workloads.Graph.Csr.top_k rank ~k:5 in
  Alcotest.(check int) "top-5" 5 (List.length top);
  (match top with
  | (_, first) :: (_, second) :: _ ->
      Alcotest.(check bool) "sorted descending" true (first >= second)
  | _ -> Alcotest.fail "top_k");
  (* The synthetic generator biases toward low ids: node 0 should rank in
     the upper half. *)
  let sorted = Array.copy rank in
  Array.sort compare sorted;
  Alcotest.(check bool) "low ids favoured" true
    (rank.(0) >= sorted.(Array.length sorted / 2))

let test_pagerank_empty () =
  Alcotest.(check int) "empty graph" 0
    (Array.length
       (Workloads.Graph.Csr.pagerank
          (Workloads.Graph.Csr.of_edges ~nodes:0 [])
          ~iterations:3 ~damping:0.85))

(* ------------------------------------------------------------------ *)
(* IDS                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ids_scores () =
  let r = rng () in
  let baseline = Workloads.Ids.baseline ~rng:r in
  let clean = Workloads.Ids.synthetic_log ~rng:r ~events:4000 ~anomaly_rate:0.0 in
  let attacked = Workloads.Ids.synthetic_log ~rng:r ~events:4000 ~anomaly_rate:0.3 in
  let clean_score = Workloads.Ids.score ~baseline clean in
  let attack_score = Workloads.Ids.score ~baseline attacked in
  Alcotest.(check bool) "clean close to baseline" true (clean_score < 0.05);
  Alcotest.(check bool) "attack diverges" true (attack_score > 2.0 *. clean_score);
  Alcotest.(check bool) "scores in [0,1]" true
    (clean_score >= 0.0 && clean_score <= 1.0 && attack_score >= 0.0 && attack_score <= 1.0)

let test_sketch_cosine () =
  let a = Workloads.Ids.Sketch.create ~width:64 in
  let b = Workloads.Ids.Sketch.create ~width:64 in
  let e = { Workloads.Ids.src = "x"; action = "y"; dst = "z" } in
  Alcotest.(check (float 0.001)) "empty cosine" 0.0 (Workloads.Ids.Sketch.cosine a b);
  Workloads.Ids.Sketch.add a e;
  Workloads.Ids.Sketch.add b e;
  Alcotest.(check (float 0.001)) "identical" 1.0 (Workloads.Ids.Sketch.cosine a b);
  Alcotest.(check int) "count" 1 (Workloads.Ids.Sketch.count a)

(* ------------------------------------------------------------------ *)
(* Image processing                                                    *)
(* ------------------------------------------------------------------ *)

let test_image_pipeline () =
  let r = rng () in
  let img = Workloads.Imageproc.Image.synthetic ~rng:r ~width:64 ~height:64 ~blobs:3 in
  Alcotest.(check int) "pixels" (64 * 64) (Array.length img.Workloads.Imageproc.Image.pixels);
  let edges = Workloads.Imageproc.Image.sobel img in
  let binary = Workloads.Imageproc.Image.threshold edges ~level:100 in
  Array.iter
    (fun v -> if v <> 0 && v <> 1 then Alcotest.fail "not binary")
    binary.Workloads.Imageproc.Image.pixels;
  let n = Workloads.Imageproc.Image.segments binary in
  Alcotest.(check bool) "found some segments" true (n >= 1);
  (* A blank image has no segments. *)
  let blank =
    { Workloads.Imageproc.Image.width = 8; height = 8; pixels = Array.make 64 0 }
  in
  Alcotest.(check int) "blank" 0 (Workloads.Imageproc.Image.segments blank)

let test_segments_counts_blobs () =
  (* Two clearly separated squares -> two components. *)
  let width = 32 and height = 32 in
  let pixels = Array.make (width * height) 0 in
  List.iter
    (fun (x0, y0) ->
      for y = y0 to y0 + 4 do
        for x = x0 to x0 + 4 do
          pixels.((y * width) + x) <- 1
        done
      done)
    [ (2, 2); (20, 20) ];
  Alcotest.(check int) "two components" 2
    (Workloads.Imageproc.Image.segments { Workloads.Imageproc.Image.width; height; pixels })

(* ------------------------------------------------------------------ *)
(* Profiles / spec builder                                             *)
(* ------------------------------------------------------------------ *)

let test_profiles_match_table5 () =
  (* Table 5/6 anchor values. *)
  let check name (p : Workloads.Workload.profile) seconds confined common =
    Alcotest.(check string) (name ^ " name") name p.Workloads.Workload.name;
    Alcotest.(check (float 0.001)) (name ^ " time") seconds p.Workloads.Workload.nominal_seconds;
    Alcotest.(check int) (name ^ " confined") confined p.Workloads.Workload.nominal_confined_mb;
    Alcotest.(check bool)
      (name ^ " common")
      true
      (match (p.Workloads.Workload.common, common) with
      | Some (_, mb), Some mb' -> mb = mb'
      | None, None -> true
      | _ -> false)
  in
  check "llama.cpp" Workloads.Llm.profile 52.85 501 (Some 4096);
  check "yolo" Workloads.Imageproc.profile 19.60 757 (Some 132);
  check "drugbank" Workloads.Retrieval.profile 12.89 814 (Some 400);
  check "graphchi" Workloads.Graph.profile 34.31 1340 None;
  check "unicorn" Workloads.Ids.profile 38.94 1254 None

let test_spec_scaling () =
  let spec = Workloads.Llm.spec () in
  Alcotest.(check int) "confined scaled by mem_scale"
    (501 * 1024 * 1024 / Workloads.Workload.mem_scale)
    spec.Sim.Machine.confined_bytes;
  Alcotest.(check int) "nominal preserved" 501 spec.Sim.Machine.nominal_confined_mb;
  Alcotest.(check bool) "sandboxed" true spec.Sim.Machine.sandboxed;
  Alcotest.(check int) "threads" 8 spec.Sim.Machine.threads

(* ------------------------------------------------------------------ *)
(* LMBench / netserve structure                                        *)
(* ------------------------------------------------------------------ *)

let test_lmbench_list () =
  let names = List.map (fun b -> b.Workloads.Lmbench.bench_name) Workloads.Lmbench.benches in
  Alcotest.(check (list string)) "fig 8 benches"
    [ "syscall"; "read"; "write"; "signal"; "mmap"; "pagefault"; "fork" ]
    names

let test_lmbench_syscall_overhead () =
  let ratio, native, erebor =
    Workloads.Lmbench.overhead (List.hd Workloads.Lmbench.benches)
  in
  Alcotest.(check (float 0.1)) "native null syscall"
    (float_of_int Hw.Cycles.Cost.syscall_roundtrip)
    native.Workloads.Lmbench.avg_cycles;
  Alcotest.(check bool) "erebor dearer" true (ratio > 1.0);
  Alcotest.(check bool) "but bounded" true (ratio < 4.0);
  Alcotest.(check bool) "ops/sec positive" true (erebor.Workloads.Lmbench.ops_per_sec > 0.0)

let test_lmbench_pagefault_worst () =
  (* Fig 8: pagefault is the worst benchmark. *)
  let ratios =
    List.map
      (fun b ->
        let ratio, _, _ = Workloads.Lmbench.overhead b in
        (b.Workloads.Lmbench.bench_name, ratio))
      Workloads.Lmbench.benches
  in
  let pf = List.assoc "pagefault" ratios in
  List.iter
    (fun (name, r) ->
      if name <> "pagefault" && name <> "mmap" then
        Alcotest.(check bool) (name ^ " below pagefault") true (r <= pf))
    ratios

let test_netserve_shape () =
  (* Small files hurt more; everything stays below parity. *)
  let small =
    Workloads.Netserve.relative_throughput Workloads.Netserve.Ssh ~file_kb:1 ~requests:20
  in
  let large =
    Workloads.Netserve.relative_throughput Workloads.Netserve.Ssh ~file_kb:4096 ~requests:2
  in
  Alcotest.(check bool) "below native" true (small < 1.0 && large < 1.0);
  Alcotest.(check bool) "small files hurt more" true (small < large);
  Alcotest.(check bool) "large files near native" true (large > 0.93)

(* ------------------------------------------------------------------ *)
(* Cycle attribution over the Fig. 9 grid                              *)
(* ------------------------------------------------------------------ *)

(* The attribution breakdown is part of the deterministic evaluation
   output: fanning the 25 machines across domains must not change a single
   cycle, and every row must conserve cycles exactly. *)
let test_attrib_determinism () =
  let a1 = Workloads.Eval.attrib ~jobs:1 () in
  let a2 = Workloads.Eval.attrib ~jobs:3 () in
  Alcotest.(check int) "program x setting grid"
    (List.length Workloads.Eval.all_programs * List.length Sim.Config.all)
    (List.length a1);
  Alcotest.(check bool) "identical under --jobs 1 vs --jobs 3" true (a1 = a2);
  List.iter
    (fun (r : Workloads.Eval.attrib_row) ->
      let name field =
        Printf.sprintf "%s@%s %s" r.aprogram (Sim.Config.name r.asetting) field
      in
      let summed =
        List.fold_left (fun acc (_, _, c) -> acc + c) r.unattributed_cycles
          r.contexts
      in
      Alcotest.(check int) (name "conserves cycles") r.total_cycles summed;
      Alcotest.(check bool) (name "run phase present") true
        (List.exists (fun (d, p, _) -> d = "user" && p = "run") r.contexts);
      List.iter
        (fun (_, _, c) ->
          Alcotest.(check bool) (name "nonzero contexts only") true (c > 0))
        r.contexts)
    a1

(* ------------------------------------------------------------------ *)
(* Common-memory accounting (§9.2)                                     *)
(* ------------------------------------------------------------------ *)

(* The demand-fault path behind [Eval.memshare] (page-table descent, frame
   source, MMU guard) must keep every accounting row: the first three
   match the committed host-benchmark reference exactly, which stores each
   value with every digit [%.17g] prints. *)
let test_memshare_rows_match_reference () =
  let module J = Workloads.Bench_gate.Json in
  let doc =
    match J.parse (In_channel.with_open_bin "../perf/reference.json" In_channel.input_all) with
    | Ok v -> v
    | Error e -> Alcotest.failf "perf/reference.json: %s" e
  in
  let expected field =
    match Option.bind (J.member "items" doc) (J.member "eval.memshare") with
    | None -> Alcotest.fail "no eval.memshare item in perf/reference.json"
    | Some item -> (
        match J.member field item with
        | Some (J.Num v) -> v
        | _ -> Alcotest.failf "eval.memshare has no %s" field)
  in
  let rows = Workloads.Eval.memshare ~max_sandboxes:3 () in
  Alcotest.(check int) "three rows" 3 (List.length rows);
  List.iter
    (fun (r : Workloads.Eval.memshare_row) ->
      let key field = Printf.sprintf "%d.%s" r.sandboxes field in
      let check field v =
        Alcotest.(check (float 0.0)) (key field) (expected (key field)) v
      in
      check "shared_frames" (float_of_int r.shared_frames);
      check "replicated_frames" (float_of_int r.replicated_frames);
      check "saving_pct" r.saving_pct)
    rows

(* ------------------------------------------------------------------ *)
(* Bench regression gate                                               *)
(* ------------------------------------------------------------------ *)

let test_bench_gate_json () =
  let module J = Workloads.Bench_gate.Json in
  (match J.parse {| {"a": [1, 2.5, "x\n\"y\\", true, false, null, {}], "b": {"c": -3e2}} |} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v -> (
      (match J.member "a" v with
      | Some (J.Arr [ J.Num 1.0; J.Num 2.5; J.Str s; J.Bool true; J.Bool false;
                      J.Null; J.Obj [] ]) ->
          Alcotest.(check string) "string escapes" "x\n\"y\\" s
      | _ -> Alcotest.fail "array shape");
      match Option.bind (J.member "b" v) (J.member "c") with
      | Some (J.Num f) -> Alcotest.(check (float 1e-9)) "exponent" (-300.0) f
      | _ -> Alcotest.fail "nested member"));
  (match J.parse "{\"unterminated\": " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated JSON");
  (match J.parse "{} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage");
  (match J.parse {|"\u0041"|} with
  | Ok (J.Str "A") -> ()
  | _ -> Alcotest.fail "\\u0041 should decode to A");
  List.iter
    (fun bad ->
      match J.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad escape %s" bad)
    [ {|"\uZZZZ"|}; {|"\u-123"|}; {|"\u12"|}; {|"\u+0041"|} ];
  match J.parse (String.make 300 '[' ^ String.make 300 ']') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted nesting deeper than the bound"

(* The baseline decoder reads bytes a stale or hostile file controls: it
   must answer Ok or Error for any input and never raise. *)
let json_total s =
  match Workloads.Bench_gate.Json.parse s with Ok _ | Error _ -> true

(* Token soup over JSON's own alphabet, bare or quoted, reaches escapes,
   nesting and number edges far more often than uniform bytes do. *)
let json_soup =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (0 -- 24)
         (oneofl
            [ "\""; "\\"; "\\u"; "u"; "0"; "F"; "z"; "-"; "+"; "_"; "{"; "}";
              "["; "]"; ","; ":"; "1e9"; "."; "true"; "null"; " "; "\000";
              "\255" ])))

let prop_bench_gate_json_arbitrary =
  QCheck.Test.make ~name:"json parser total on arbitrary strings" ~count:1000
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         oneof [ json_soup; map (fun s -> "\"" ^ s ^ "\"") json_soup; string ]))
    json_total

module G = Workloads.Bench_check

(* The anchor document: the run record without its host half. *)
let anchor_doc ?(fig9 = []) () =
  G.record None ~table3:(Workloads.Eval.table3 ()) ~table4:(Workloads.Eval.table4 ()) ~fig9

let prop_bench_gate_json_mutated =
  let doc = lazy (anchor_doc ()) in
  QCheck.Test.make ~name:"json parser total on mutated anchor documents"
    ~count:1000
    QCheck.(pair (small_list (pair (int_bound 65535) char)) (int_bound 65535))
    (fun (edits, cut) ->
      let b = Bytes.of_string (Lazy.force doc) in
      let n = Bytes.length b in
      List.iter (fun (i, c) -> Bytes.set b (i mod n) c) edits;
      json_total (Bytes.sub_string b 0 (n - (cut mod n))))

let test_bench_gate_pass () =
  (* A baseline regenerated from the current build must pass the gate. *)
  match G.check_string ~fig9:None (anchor_doc ()) with
  | Error e -> Alcotest.failf "gate errored: %s" e
  | Ok verdict ->
      List.iter
        (fun (c : G.check) ->
          Alcotest.(check bool) (c.name ^ ": " ^ c.detail) true c.ok)
        verdict;
      Alcotest.(check bool) "verdict passes" true (G.pass verdict);
      (* The gate actually looked at the anchors: one check per table-3 row
         and two per table-4 row, plus coverage and schema, plus the
         backend-pinning block (default-is-pks and one re-derivation per
         table-3/table-4 row under an explicit PKS backend). *)
      Alcotest.(check int) "check count"
        (1 (* schema *)
        + List.length (Workloads.Eval.table3 ()) + 1
        + (2 * List.length (Workloads.Eval.table4 ())) + 1
        + 1 (* backend/default *)
        + List.length (Workloads.Eval.table3 ()) (* backend/table3-pks/* *)
        + List.length (Workloads.Eval.table4 ()) (* backend/table4-pks/* *)
        + 1 (* wall, vacuous without a baseline wall time *))
        (List.length verdict)

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then s
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else find (i + 1)
  in
  find 0

let test_bench_gate_seeded_failure () =
  (* Perturb one anchor: the EMC round trip is 1224 in the rendered
     baseline; a baseline claiming 1225 must fail on exactly that check. *)
  let anchors = anchor_doc () in
  let seeded = replace_first ~sub:"\"cycles\": 1224" ~by:"\"cycles\": 1225" anchors in
  Alcotest.(check bool) "anchor present and perturbed" true (seeded <> anchors);
  match G.check_string ~fig9:None seeded with
  | Error e -> Alcotest.failf "gate errored: %s" e
  | Ok verdict ->
      Alcotest.(check bool) "seeded mismatch fails" false (G.pass verdict);
      (match G.failures verdict with
      | [ f ] ->
          Alcotest.(check bool) "failure names the anchor" true
            (f.G.name = "table3/EMC.cycles")
      | fs -> Alcotest.failf "expected exactly 1 failure, got %d" (List.length fs));
      (* Dropping a row entirely trips the coverage check instead. *)
      let missing_row =
        match G.check_string ~fig9:None "{\"schema\": \"erebor-bench-sim/2\", \"table3\": [], \"table4\": []}" with
        | Ok v -> v
        | Error e -> Alcotest.failf "gate errored: %s" e
      in
      Alcotest.(check bool) "empty anchor tables fail coverage" false
        (G.pass missing_row)

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Fig. 9 rows go through the Table 3/4 comparator, coverage check
   included: a baseline that lacks one regenerated row fails
   [fig9/coverage], which names the row, while the row it has is still
   compared field by field. *)
let test_bench_gate_fig9_coverage () =
  let row program overhead_pct =
    {
      Workloads.Eval.program;
      setting = Sim.Config.Erebor_full;
      overhead_pct;
      init_overhead_pct = 0.0;
      time_seconds = 1.0;
      pf_rate = 10.0;
      timer_rate = 250.0;
      ve_rate = 1.5;
      emc_rate = 4000.25;
      confined_mb = 1;
      common_mb = 0;
      output_bytes = 0;
    }
  in
  let rows = [ row "drugbank" 6.1234; row "unicorn" 4.5 ] in
  let verdict baseline_rows =
    match G.check_string ~fig9:(Some rows) (anchor_doc ~fig9:baseline_rows ()) with
    | Ok v -> List.filter (fun (c : G.check) -> String.starts_with ~prefix:"fig9/" c.name) v
    | Error e -> Alcotest.failf "gate errored: %s" e
  in
  let whole = verdict rows in
  Alcotest.(check bool) "every row present passes" true (G.pass whole);
  Alcotest.(check int) "five fields per row + coverage" 11 (List.length whole);
  let partial = verdict [ List.hd rows ] in
  Alcotest.(check int) "the present row is still compared" 6 (List.length partial);
  match G.failures partial with
  | [ f ] ->
      Alcotest.(check string) "coverage fails" "fig9/coverage" f.name;
      Alcotest.(check bool) ("names the row: " ^ f.detail) true
        (contains ~sub:"unicorn:erebor" f.detail)
  | fs -> Alcotest.failf "expected exactly 1 failure, got %d" (List.length fs)

(* [ledger_diff] applies the ledger rule between two records: a record
   against itself passes with every count unmoved, 3% more minor words on
   one target fails that row only, so does a single word more or less (the
   rule is exact), and a record without per-target words (a parallel run)
   fails outright. *)
let test_bench_gate_ledger_diff () =
  let record minor =
    Printf.sprintf
      "{\"schema\": \"erebor-bench-sim/2\", \"profile\": \"release\", \
       \"targets\": [{\"name\": \"table3\", \"wall_s\": 0.1, \
       \"minor_words\": %d, \"major_words\": 700, \"promoted_words\": 200}, \
       {\"name\": \"fig9\", \"wall_s\": 1.0, \"minor_words\": 5000, \
       \"major_words\": 900, \"promoted_words\": 100}]}"
      minor
  in
  let parse s =
    match Workloads.Bench_gate.Json.parse s with
    | Ok j -> j
    | Error e -> Alcotest.failf "json: %s" e
  in
  let base = parse (record 1000) in
  let same = G.ledger_diff base base in
  Alcotest.(check bool) "self passes" true (G.pass same);
  Alcotest.(check int) "profile + 2 rows per target" 5 (List.length same);
  Alcotest.(check bool) "nothing moved" true
    (List.for_all (fun (c : G.check) -> c.old_value = c.new_value) same);
  (match G.failures (G.ledger_diff base (parse (record 1030))) with
  | [ f ] ->
      Alcotest.(check string) "the moved row" "ledger/table3.minor_words" f.name
  | fs -> Alcotest.failf "expected exactly 1 failure, got %d" (List.length fs));
  List.iter
    (fun minor ->
      match G.failures (G.ledger_diff base (parse (record minor))) with
      | [ f ] ->
          Alcotest.(check string)
            (Printf.sprintf "%d words: the moved row" minor)
            "ledger/table3.minor_words" f.name
      | fs -> Alcotest.failf "%d words: expected 1 failure, got %d" minor (List.length fs))
    [ 999; 1001 ];
  let parallel =
    parse "{\"profile\": \"release\", \"targets\": [{\"name\": \"fig9\", \"wall_s\": 1.0}]}"
  in
  Alcotest.(check bool) "no serial words fails" false
    (G.pass (G.ledger_diff base parallel))

(* A sink that is NOT transparent must fail the law. This one stretches
   simulated time: when a workload's Run span opens it rescales every
   workload's duration, so the instrumented machine's clock runs further
   than the bare one's. *)
let test_bench_gate_law_catches_clock_sink () =
  let stretch obs =
    Obs.Emitter.attach obs (fun kind ~ts:_ ~arg:_ ->
        if kind = Obs.Trace.Span_begin Obs.Trace.Run then
          Workloads.Workload.set_scale 1.5)
  in
  let verdict =
    Fun.protect
      ~finally:(fun () -> Workloads.Workload.set_scale 1.0)
      (fun () -> G.transparent stretch)
  in
  Alcotest.(check bool) "law fails" false (G.pass verdict);
  Alcotest.(check bool) "run cycles flagged" true
    (List.exists (fun (c : G.check) -> c.name = "law/fig9-run-cycles") (G.failures verdict))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "workloads"
    [
      ( "llm",
        [
          Alcotest.test_case "train/generate" `Quick test_llm_train_generate;
          Alcotest.test_case "deterministic" `Quick test_llm_deterministic_given_rng;
          Alcotest.test_case "bad order" `Quick test_llm_rejects_bad_order;
        ] );
      ( "retrieval",
        [
          Alcotest.test_case "hashmap basics" `Quick test_hashmap_basic;
          Alcotest.test_case "hashmap rejects" `Quick test_hashmap_rejects;
          Alcotest.test_case "synthetic db" `Quick test_synthetic_db;
          qt prop_hashmap_model;
        ] );
      ( "graph",
        [
          Alcotest.test_case "csr structure" `Quick test_csr_structure;
          Alcotest.test_case "pagerank properties" `Quick test_pagerank_properties;
          Alcotest.test_case "empty graph" `Quick test_pagerank_empty;
        ] );
      ( "ids",
        [
          Alcotest.test_case "scores" `Quick test_ids_scores;
          Alcotest.test_case "sketch cosine" `Quick test_sketch_cosine;
        ] );
      ( "imageproc",
        [
          Alcotest.test_case "pipeline" `Quick test_image_pipeline;
          Alcotest.test_case "segment count" `Quick test_segments_counts_blobs;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "table 5 anchors" `Quick test_profiles_match_table5;
          Alcotest.test_case "spec scaling" `Quick test_spec_scaling;
        ] );
      ( "benches",
        [
          Alcotest.test_case "lmbench list" `Quick test_lmbench_list;
          Alcotest.test_case "syscall overhead" `Quick test_lmbench_syscall_overhead;
          Alcotest.test_case "pagefault worst" `Slow test_lmbench_pagefault_worst;
          Alcotest.test_case "netserve shape" `Slow test_netserve_shape;
        ] );
      ( "attrib",
        [
          Alcotest.test_case "fig9 grid: jobs-independent + conserving" `Quick
            test_attrib_determinism;
        ] );
      ( "memshare",
        [
          Alcotest.test_case "rows match perf/reference.json" `Quick
            test_memshare_rows_match_reference;
        ] );
      ( "bench-gate",
        [
          Alcotest.test_case "json parser" `Quick test_bench_gate_json;
          qt prop_bench_gate_json_arbitrary;
          qt prop_bench_gate_json_mutated;
          Alcotest.test_case "current anchors pass" `Quick test_bench_gate_pass;
          Alcotest.test_case "seeded mismatch fails" `Quick
            test_bench_gate_seeded_failure;
          Alcotest.test_case "fig9 baseline missing a row fails coverage" `Quick
            test_bench_gate_fig9_coverage;
          Alcotest.test_case "clock-advancing sink fails the law" `Quick
            test_bench_gate_law_catches_clock_sink;
          Alcotest.test_case "ledger diff between records" `Quick
            test_bench_gate_ledger_diff;
        ] );
    ]
