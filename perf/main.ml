(* The simulator's host-cost benchmark; README.md has the workload and
   metric dictionary. *)

open Perf_bench

let usage =
  {|usage:
  main.exe --workload W --seed N --seconds S --trace 0|1
      one run; prints `W metric value unit` lines, then one JSON result line
  main.exe run --workload W [--seed N] [--seconds S] [--traced] [--smoke] [--out DIR]
  main.exe all [--seed N] [--seconds S] [--traced] [--smoke] [--out DIR]
      every workload, each in its own process; writes DIR/results.json
  main.exe compare A.json B.json
      medians, delta and verdict per workload and end-to-end metric
  main.exe reference [--write] [--baseline BENCH_sim.json] [--path perf/reference.json]
      regenerate the simulated results and diff them against (or rewrite)
      the committed reference|}

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

(* [--key value] pairs; the names in [flags] take no value. *)
let parse ?(flags = []) args =
  let rec go acc = function
    | [] -> acc
    | k :: rest when List.mem k flags -> go ((k, "") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | a :: _ -> die "unexpected argument %s\n%s" a usage
  in
  go [] args

let get o k ~default conv =
  match List.assoc_opt k o with
  | None -> default
  | Some v -> (
      match conv v with Some x -> x | None -> die "bad value for %s: %s" k v)

let workload_names = String.concat ", " (List.map (fun (w : Items.workload) -> w.name) Items.workloads)

let config ~traced o =
  let workload =
    match List.assoc_opt "--workload" o with
    | None -> die "--workload is required (one of %s)" workload_names
    | Some n -> (
        match Items.find_workload n with
        | Some w -> w
        | None -> die "unknown workload %s (one of %s)" n workload_names)
  in
  {
    Bench.workload;
    seed = get o "--seed" ~default:1 int_of_string_opt;
    seconds = get o "--seconds" ~default:10.0 float_of_string_opt;
    traced;
    smoke = List.mem_assoc "--smoke" o;
    out = get o "--out" ~default:"_perf" Option.some;
  }

let run_flags = [ "--traced"; "--smoke" ]

let cmd_run ~result_line cfg =
  let r = Bench.run cfg in
  Bench.print_human cfg r;
  if result_line then print_endline (Bench.result_line r);
  r

(* Each workload in its own process, one after another, so peak RSS is per
   workload and no two loads overlap. *)
let cmd_all o =
  let seed = get o "--seed" ~default:1 int_of_string_opt in
  let out = get o "--out" ~default:"_perf" Option.some in
  let traced = List.mem_assoc "--traced" o in
  let passthrough =
    List.concat_map
      (fun (k, v) -> if List.mem k run_flags then [ k ] else [ k; v ])
      (List.rev o)
  in
  let ok =
    List.map
      (fun (w : Items.workload) ->
        let args = Array.of_list ([ Sys.executable_name; "run"; "--workload"; w.name ] @ passthrough) in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        (w.name, Bench.waitpid pid = Unix.WEXITED 0))
      Items.workloads
  in
  let detail name =
    let file = Filename.concat out (name ^ (if traced then ".traced" else "") ^ ".json") in
    match In_channel.with_open_text file In_channel.input_all with
    | text -> String.trim text
    | exception Sys_error _ -> "null"
  in
  let results =
    Printf.sprintf "{\n\"seed\": %d,\n\"traced\": %b,\n\"workloads\": {\n%s\n}\n}\n" seed traced
      (String.concat ",\n"
         (List.map (fun (name, _) -> Reference.quote name ^ ": " ^ detail name) ok))
  in
  Bench.write_file (Filename.concat out "results.json") results;
  match List.filter (fun (_, good) -> not good) ok with
  | [] -> Printf.printf "all: every item matched the reference; wrote %s\n" (Filename.concat out "results.json")
  | bad ->
      Printf.printf "all: items failed in %s\n" (String.concat ", " (List.map fst bad));
      exit 1

(* {2 compare} *)

module J = Workloads.Bench_gate.Json

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> die "%s" e
  | text -> ( match J.parse text with Ok j -> j | Error e -> die "%s: %s" path e)

let metric_of run name =
  match Option.bind (J.member "metrics" run) (J.member name) with
  | Some m -> (
      match (J.member "value" m, J.member "spread" m) with
      | Some (J.Num v), Some (J.Num s) -> Some (v, s)
      | _ -> None)
  | None -> None

let cmd_compare a b =
  let ja = load a and jb = load b in
  let workloads j = match J.member "workloads" j with Some (J.Obj ws) -> ws | _ -> [] in
  let regressions = ref 0 in
  Printf.printf "%-18s %-22s %14s %14s %9s  %s\n" "workload" "metric" "A" "B" "delta" "verdict";
  List.iter
    (fun (w, ra) ->
      match List.assoc_opt w (workloads jb) with
      | None -> Printf.printf "%-18s (missing from %s)\n" w b
      | Some rb ->
          List.iter
            (fun (m : Metrics.e2e) ->
              match (metric_of ra m.name, metric_of rb m.name) with
              | Some (va, sa), Some (vb, sb) ->
                  let v =
                    Stats.verdict ~better:m.better ~bound:m.bound ~spread:(Float.max sa sb)
                      ~base:va ~now:vb
                  in
                  if v = Stats.Regression then incr regressions;
                  Printf.printf "%-18s %-22s %14.6g %14.6g %+8.2f%%  %s (bound %.0f%%)\n" w m.name
                    va vb
                    (100.0 *. ((vb -. va) /. va))
                    (Stats.verdict_name v) (100.0 *. m.bound)
              | _ -> ())
            Metrics.end_to_end)
    (workloads ja);
  if !regressions > 0 then exit 1

(* {2 reference} *)

let cmd_reference o =
  let write = List.mem_assoc "--write" o in
  let baseline_path = get o "--baseline" ~default:"BENCH_sim.json" Option.some in
  let path = get o "--path" ~default:"perf/reference.json" Option.some in
  let tmp = "_perf" in
  Bench.mkdir_p tmp;
  let entries, problems = Reference.generate ~tmp () in
  let mismatches = Reference.baseline_mismatches ~baseline:(load baseline_path) entries in
  List.iter (Printf.printf "problem: %s\n") problems;
  List.iter (Printf.printf "anchor mismatch: %s\n") mismatches;
  if problems <> [] || mismatches <> [] then begin
    Printf.printf "refusing: the regenerated results do not reproduce %s\n" baseline_path;
    exit 1
  end;
  if write then begin
    Bench.write_file path (Reference.render entries);
    Printf.printf "wrote %d items to %s\n" (List.length entries) path
  end
  else begin
    let committed = Lazy.force Reference.committed in
    let diffs =
      List.filter_map
        (fun (key, fields) ->
          Option.map (fun d -> key ^ ": " ^ d) (Reference.check committed key fields))
        entries
    in
    List.iter (Printf.printf "differs: %s\n") diffs;
    if diffs <> [] then exit 1;
    Printf.printf "all %d items match the committed reference\n" (List.length entries)
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest ->
      let o = parse ~flags:run_flags rest in
      let r = cmd_run ~result_line:false (config ~traced:(List.mem_assoc "--traced" o) o) in
      if not r.correct then exit 1
  | "all" :: rest -> cmd_all (parse ~flags:run_flags rest)
  | "setup-probe" :: rest ->
      exit (if Bench.warm_up_only (config ~traced:false (parse rest)) then 0 else 1)
  | [ "compare"; a; b ] -> cmd_compare a b
  | "reference" :: rest -> cmd_reference (parse ~flags:[ "--write" ] rest)
  | (k :: _) as args when String.starts_with ~prefix:"--" k ->
      let o = parse args in
      let traced = get o "--trace" ~default:false (function "0" -> Some false | "1" -> Some true | _ -> None) in
      ignore (cmd_run ~result_line:true (config ~traced o))
  | _ -> die "%s" usage
