(* perf/reference.json: the simulated results every item must reproduce.
   The simulator is deterministic and the seeded payloads keep each
   program's input length and trailing context ({!Items.payload_of}), so
   one entry per item key holds for every seed. *)

module J = Workloads.Bench_gate.Json

type t = (string, (string * float) list) Hashtbl.t

let schema = "erebor-perf-reference/1"

(* {2 JSON text} *)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit [%.17g] gives, so a parsed value compares equal. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let obj ?(sep = ", ") pairs =
  "{" ^ String.concat sep (List.map (fun (k, v) -> quote k ^ ": " ^ v) pairs) ^ "}"

let render (entries : (string * (string * float) list) list) =
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  let item (key, fields) =
    "    " ^ quote key ^ ": "
    ^ obj (List.map (fun (f, v) -> (f, num v)) fields)
  in
  Printf.sprintf "{\n  \"schema\": %s,\n  \"items\": {\n%s\n  }\n}\n" (quote schema)
    (String.concat ",\n" (List.map item entries))

(* {2 Loading and checking} *)

let of_string s : (t, string) result =
  let ( let* ) = Result.bind in
  let* doc = J.parse s in
  let* items =
    match J.member "items" doc with
    | Some (J.Obj items) -> Ok items
    | _ -> Error "no \"items\" object"
  in
  let t = Hashtbl.create 64 in
  let* () =
    List.fold_left
      (fun acc (key, v) ->
        let* () = acc in
        match v with
        | J.Obj fields ->
            let* fields =
              List.fold_right
                (fun (f, v) acc ->
                  let* acc = acc in
                  match v with
                  | J.Num x -> Ok ((f, x) :: acc)
                  | _ -> Error (Printf.sprintf "%s.%s is not a number" key f))
                fields (Ok [])
            in
            Hashtbl.replace t key fields;
            Ok ()
        | _ -> Error (key ^ " is not an object"))
      (Ok ()) items
  in
  Ok t

let committed =
  lazy
    (match of_string Reference_data.contents with
    | Ok t -> t
    | Error e -> failwith ("perf/reference.json: " ^ e))

(* [None] when [fields] reproduce the entry for [key] exactly; otherwise
   the first differing fields, expected against got. *)
let check t key fields =
  match Hashtbl.find_opt t key with
  | None -> Some ("no reference entry for " ^ key)
  | Some expected ->
      let diffs =
        List.filter_map
          (fun (f, want) ->
            match List.assoc_opt f fields with
            | Some got when got = want -> None
            | Some got -> Some (Printf.sprintf "%s: expected %s, got %s" f (num want) (num got))
            | None -> Some (f ^ ": missing"))
          expected
        @ List.filter_map
            (fun (f, _) ->
              if List.mem_assoc f expected then None else Some (f ^ ": unexpected"))
            fields
      in
      (match diffs with
      | [] -> None
      | d -> Some (String.concat "; " (List.filteri (fun i _ -> i < 3) d)))

(* {2 Generation} *)

(* The refusal rule of [reference --write]: the paper-suite rows must equal
   the committed BENCH_sim.json at its printed precision, and every Fig. 9
   session item must reproduce its row's overhead exactly, so the reference
   can only be regenerated from a simulator that still reproduces the
   paper's anchors. *)
let baseline_mismatches ~baseline entries =
  let field key f = Option.bind (List.assoc_opt key entries) (List.assoc_opt f) in
  let mism = ref [] in
  let expect what ~want ~got =
    if want <> got then
      mism := Printf.sprintf "%s: BENCH_sim.json %s, regenerated %s" what want got :: !mism
  in
  let fmt prec = function
    | Some v -> Printf.sprintf "%.*f" prec v
    | None -> "missing"
  in
  let rows name =
    match J.member name baseline with Some (J.Arr rows) -> rows | _ -> []
  in
  let str k row = match J.member k row with Some (J.Str s) -> s | _ -> "?" in
  let nm k row = match J.member k row with Some (J.Num v) -> Some v | _ -> None in
  List.iter
    (fun row ->
      let t = str "transition" row in
      expect ("table3/" ^ t) ~want:(fmt 0 (nm "cycles" row))
        ~got:(fmt 0 (field "eval.table3" (t ^ ".cycles"))))
    (rows "table3");
  List.iter
    (fun row ->
      let op = str "op" row in
      List.iter
        (fun col ->
          expect
            (Printf.sprintf "table4/%s.%s" op col)
            ~want:(fmt 0 (nm col row))
            ~got:(fmt 0 (field "eval.table4" (op ^ "." ^ col))))
        [ "native_cycles"; "erebor_cycles" ])
    (rows "table4");
  List.iter
    (fun row ->
      let cell = str "program" row ^ "@" ^ str "setting" row in
      List.iter
        (fun (col, prec) ->
          expect
            (Printf.sprintf "fig9/%s.%s" cell col)
            ~want:(fmt prec (nm col row))
            ~got:(fmt prec (field "eval.fig9" (cell ^ "." ^ col))))
        [ ("overhead_pct", 4); ("pf_rate", 2); ("timer_rate", 2); ("ve_rate", 2);
          ("emc_rate", 2) ];
      let program = str "program" row in
      let overhead =
        match
          (field cell "run_cycles", field (program ^ "@native") "run_cycles")
        with
        | Some r, Some n -> Some (100.0 *. ((r /. n) -. 1.0))
        | _ -> None
      in
      expect
        (Printf.sprintf "item %s overhead vs eval.fig9" cell)
        ~want:(fmt 17 (field "eval.fig9" (cell ^ ".overhead_pct")))
        ~got:(fmt 17 overhead))
    (rows "fig9");
  if rows "table3" = [] || rows "table4" = [] || rows "fig9" = [] then
    mism := "BENCH_sim.json lacks table3, table4 or fig9 rows" :: !mism;
  List.rev !mism

(* Runs every distinct item once with its built-in input. Items that share
   a key (a recorded session and its bare twin) must agree. *)
let generate ~tmp () =
  let entries = ref [] in
  let problems = ref [] in
  List.iter
    (fun (w : Items.workload) ->
      List.iter
        (fun (item : Items.item) ->
          let o = Items.run ~payload:false ~seed:0 ~tmp item in
          (match o.problem with
          | Some p -> problems := (item.key ^ ": " ^ p) :: !problems
          | None -> ());
          match List.assoc_opt item.key !entries with
          | None -> entries := (item.key, o.fields) :: !entries
          | Some f when f = o.fields -> ()
          | Some _ ->
              problems :=
                (item.key ^ ": differs between workloads (sink attached?)") :: !problems)
        w.items)
    Items.workloads;
  (List.rev !entries, List.rev !problems)
