(* The bench regression gate: re-run the calibrated anchors and diff them
   against a committed BENCH_sim.json baseline, then hold every other
   bench contract as a named check in the same verdict.

   The gate's contract mirrors how the numbers are produced. Anchor numbers
   (Table 3 transition costs, Table 4 privop costs, and — in full mode —
   the Fig. 9 overhead/rate columns at their reported precision) are
   deterministic functions of the simulator, so they must match EXACTLY;
   any drift means a semantic change to calibrated mechanics. Wall time and
   GC pressure are host-dependent, so they only gate within a generous
   tolerance — enough to catch an accidental 10x, never a noisy CI host.

   JSON comes from a small hand-rolled parser (the repo takes no external
   dependencies): objects, arrays, strings, numbers, booleans, null. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Error of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some d when d = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word value =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let code = ref 0 in
              for i = !pos to !pos + 3 do
                let digit =
                  match s.[i] with
                  | '0' .. '9' as c -> Char.code c - Char.code '0'
                  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                  | _ -> fail "\\u escape needs 4 hex digits"
                in
                code := (!code * 16) + digit
              done;
              let code = !code in
              pos := !pos + 4;
              (* Latin-1 subset is enough for our own files. *)
              Buffer.add_char buf
                (if code < 256 then Char.chr code else '?')
          | _ -> fail "bad escape");
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && num_char s.[!pos] do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    (* Nesting is bounded so a hostile document cannot exhaust the stack. *)
    let rec parse_value depth =
      if depth > 256 then fail "nesting too deep";
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((key, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((key, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elements acc =
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match parse_value 0 with
    | v ->
        skip_ws ();
        if !pos <> n then Result.Error "trailing garbage after JSON value"
        else Result.Ok v
    | exception Error msg -> Result.Error msg

  let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
  let to_float = function Some (Num f) -> Some f | _ -> None
  let to_int j = Option.map int_of_float (to_float j)
  let to_str = function Some (Str s) -> Some s | _ -> None
  let to_arr = function Some (Arr l) -> l | _ -> []
end

type check = {
  name : string;
  ok : bool;
  detail : string;
  old_value : string option;
  new_value : string option;
}

type verdict = check list

(* Most checks are built through this helper so the old/new columns stay
   optional at the construction sites. *)
let chk ?old_value ?new_value name ok detail =
  { name; ok; detail; old_value; new_value }

let pass v = List.for_all (fun c -> c.ok) v
let failures v = List.filter (fun c -> not c.ok) v

let pp_verdict fmt v =
  List.iter
    (fun c ->
      Format.fprintf fmt "  [%s] %-24s %s@." (if c.ok then "ok" else "FAIL")
        c.name c.detail)
    v

(* A unified old/new table of every failing check, so one run is enough to
   triage a regression. Checks without a comparable pair (parse errors,
   coverage gaps) render "-" and keep their detail line. *)
let pp_mismatch_table fmt v =
  let fails = failures v in
  if fails <> [] then begin
    let cell = function Some s -> s | None -> "-" in
    let w_name =
      List.fold_left (fun w c -> max w (String.length c.name)) 24 fails
    in
    let w_old =
      List.fold_left
        (fun w c -> max w (String.length (cell c.old_value)))
        (String.length "old (baseline)") fails
    in
    let w_new =
      List.fold_left
        (fun w c -> max w (String.length (cell c.new_value)))
        (String.length "new (regenerated)") fails
    in
    Format.fprintf fmt "  %-*s  %-*s  %-*s@." w_name "check" w_old
      "old (baseline)" w_new "new (regenerated)";
    Format.fprintf fmt "  %s  %s  %s@." (String.make w_name '-')
      (String.make w_old '-') (String.make w_new '-');
    List.iter
      (fun c ->
        Format.fprintf fmt "  %-*s  %-*s  %-*s@." w_name c.name w_old
          (cell c.old_value) w_new (cell c.new_value);
        if c.old_value = None && c.new_value = None then
          Format.fprintf fmt "  %-*s    %s@." w_name "" c.detail)
      fails
  end

(* One check per anchor: [probe] extracts the baseline row's identity and
   expectation, [current] the regenerated value. *)
let anchor_checks ~family ~baseline_rows ~key_field ~current ~fields =
  let seen = ref [] in
  let row_checks =
    List.concat_map
      (fun row ->
        match Json.to_str (Json.member key_field row) with
        | None ->
            [ chk family false ("baseline row without " ^ key_field) ]
        | Some key -> (
            seen := key :: !seen;
            match List.assoc_opt key current with
            | None ->
                [
                  chk
                    (Printf.sprintf "%s/%s" family key)
                    false "anchor present in baseline but not regenerated";
                ]
            | Some cur_fields ->
                List.map
                  (fun (field, cur_value) ->
                    let name = Printf.sprintf "%s/%s.%s" family key field in
                    match Json.to_int (Json.member field row) with
                    | None ->
                        chk ~new_value:(string_of_int cur_value) name false
                          "missing in baseline"
                    | Some base_value ->
                        let old_value = string_of_int base_value in
                        let new_value = string_of_int cur_value in
                        if base_value = cur_value then
                          chk ~old_value ~new_value name true new_value
                        else
                          chk ~old_value ~new_value name false
                            (Printf.sprintf "baseline %d, regenerated %d"
                               base_value cur_value))
                  (List.filter
                     (fun (f, _) -> List.mem f fields)
                     cur_fields)))
      baseline_rows
  in
  let coverage =
    let missing =
      List.filter (fun (key, _) -> not (List.mem key !seen)) current
    in
    match missing with
    | [] ->
        chk (family ^ "/coverage") true
          (Printf.sprintf "%d anchors" (List.length current))
    | m ->
        chk (family ^ "/coverage") false
          ("regenerated anchors missing from baseline: "
          ^ String.concat ", " (List.map fst m))
  in
  row_checks @ [ coverage ]

(* One float column of a baseline row, compared at the precision it is
   reported at: both sides are rendered with [fmt] and must be equal. *)
let rendered_check name ~(fmt : (float -> string, unit, string) format) row
    field value =
  let cur = Printf.sprintf fmt value in
  match Json.to_float (Json.member field row) with
  | None -> chk ~new_value:cur name false "missing in baseline"
  | Some base ->
      let base = Printf.sprintf fmt base in
      chk ~old_value:base ~new_value:cur name (base = cur)
        (if base = cur then cur
         else Printf.sprintf "baseline %s, regenerated %s" base cur)

let fig9_checks ~baseline ~jobs =
  let rows = Eval.fig9 ?jobs () in
  List.concat_map
    (fun row ->
      let str k = Option.value ~default:"?" (Json.to_str (Json.member k row)) in
      let program = str "program" and setting = str "setting" in
      let label = Printf.sprintf "fig9/%s:%s" program setting in
      match
        List.find_opt
          (fun (r : Eval.program_row) ->
            r.Eval.program = program && Sim.Config.name r.Eval.setting = setting)
          rows
      with
      | None -> [ chk label false "row not regenerated" ]
      | Some r ->
          let col field fmt v = rendered_check (label ^ "." ^ field) ~fmt row field v in
          [
            col "overhead_pct" "%.4f" r.Eval.overhead_pct;
            col "pf_rate" "%.2f" r.Eval.pf_rate;
            col "timer_rate" "%.2f" r.Eval.timer_rate;
            col "ve_rate" "%.2f" r.Eval.ve_rate;
            col "emc_rate" "%.2f" r.Eval.emc_rate;
          ])
    (Json.to_arr (Json.member "fig9" baseline))

(* The run-record schema. v2 added the allocation ledger: the build
   profile and, per [bench all] target, its serial minor and major words. *)
let schema = "erebor-bench-sim/2"

(* Anchor regeneration may take this multiple of the baseline suite's CPU
   time (check [wall]). *)
let wall_tolerance = 1.5

let check_json ?(fig9 = false) ?jobs baseline =
  let cpu0 = Sys.time () in
  let schema =
    match Json.to_str (Json.member "schema" baseline) with
    | Some s when s = schema -> chk ~old_value:s ~new_value:schema "schema" true schema
    | Some other ->
        chk ~old_value:other ~new_value:schema "schema" false
          ("unknown schema " ^ other)
    | None -> chk ~new_value:schema "schema" false "missing schema field"
  in
  let table3 = Eval.table3 () and table4 = Eval.table4 () in
  let t3 =
    anchor_checks ~family:"table3"
      ~baseline_rows:(Json.to_arr (Json.member "table3" baseline))
      ~key_field:"transition"
      ~current:
        (List.map
           (fun (r : Eval.transition_row) ->
             (r.Eval.transition, [ ("cycles", r.Eval.cycles) ]))
           table3)
      ~fields:[ "cycles" ]
  in
  let t4 =
    anchor_checks ~family:"table4"
      ~baseline_rows:(Json.to_arr (Json.member "table4" baseline))
      ~key_field:"op"
      ~current:
        (List.map
           (fun (r : Eval.privop_row) ->
             ( r.Eval.op,
               [
                 ("native_cycles", r.Eval.native_cycles);
                 ("erebor_cycles", r.Eval.erebor_cycles);
               ] ))
           table4)
      ~fields:[ "native_cycles"; "erebor_cycles" ]
  in
  (* Backend pinning: the committed anchors were calibrated under the PKS
     backend, so the gate holds two invariants — the default install still
     IS PKS, and an explicitly-PKS machine reproduces the default anchors
     byte for byte. A backend-default change (or a PKS backend that drifted
     from the historical inline behaviour) fails here even if the default
     anchors above still happen to match. *)
  let backend_pin =
    let default_kind =
      let m =
        Sim.Machine.create ~frames:16384 ~cma_frames:1024
          ~setting:Sim.Config.Erebor_full ()
      in
      let monitor =
        Erebor.Sandbox.manager_monitor (Option.get (Sim.Machine.manager m))
      in
      Erebor.Isolation.kind_name
        (Erebor.Isolation.kind (Erebor.Monitor.backend monitor))
    in
    let default_check =
      chk ~old_value:"pks" ~new_value:default_kind "backend/default"
        (default_kind = "pks")
        (if default_kind = "pks" then "default install is pks"
         else "default isolation backend is no longer pks")
    in
    let pinned family default pks =
      List.map2
        (fun (key, d) (_, p) ->
          chk ~old_value:(string_of_int d) ~new_value:(string_of_int p)
            (Printf.sprintf "backend/%s-pks/%s" family key)
            (d = p)
            (Printf.sprintf "default %d, explicit pks %d" d p))
        default pks
    in
    let t3_cycles rows =
      List.map (fun (r : Eval.transition_row) -> (r.Eval.transition, r.Eval.cycles)) rows
    in
    let t4_cycles rows =
      List.map (fun (r : Eval.privop_row) -> (r.Eval.op, r.Eval.erebor_cycles)) rows
    in
    let pks = Erebor.Isolation.Pks in
    (default_check
    :: pinned "table3" (t3_cycles table3) (t3_cycles (Eval.table3 ~backend:pks ())))
    @ pinned "table4" (t4_cycles table4) (t4_cycles (Eval.table4 ~backend:pks ()))
  in
  let cpu = Sys.time () -. cpu0 in
  (* The Fig. 9 rows run after the budget window closes: they cost a large
     share of a whole suite, while the budget bounds anchor regeneration.
     Host allocation is the ledger's (see below); CPU time is bounded only
     here. *)
  let f9 = if fig9 then fig9_checks ~baseline ~jobs else [] in
  let wall =
    match Json.to_float (Json.member "total_wall_s" baseline) with
    | None -> chk "wall" true "no baseline wall time"
    | Some base ->
        let budget = wall_tolerance *. base in
        chk
          ~old_value:(Printf.sprintf "budget %.3fs" budget)
          ~new_value:(Printf.sprintf "%.3fs cpu" cpu)
          "wall" (cpu <= budget)
          (Printf.sprintf
             "regeneration %.3fs cpu, budget %.3fs (%.1fx baseline suite)" cpu
             budget wall_tolerance)
  in
  (schema :: t3) @ t4 @ backend_pin @ f9 @ [ wall ]

let parse_baseline json =
  Result.map_error (fun e -> "baseline JSON: " ^ e) (Json.parse json)

let read_baseline path =
  match In_channel.with_open_bin path In_channel.input_all with
  | json -> parse_baseline json
  | exception Sys_error e -> Result.Error e

let check_string json = Result.map check_json (parse_baseline json)

let check_file ?fig9 ?jobs ~path () =
  Result.map (check_json ?fig9 ?jobs) (read_baseline path)

(* ------------------------------------------------------------------ *)
(* The allocation ledger                                               *)
(* ------------------------------------------------------------------ *)

type target_cost = {
  target : string;
  wall_s : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

(* One check per (target, counter), exact to the word: a serial target's
   counts reproduce to the word across runs and checkouts. Both directions
   fail: a rise is a regression, a drop means the committed ledger no
   longer describes the build and must be re-baselined in the same
   change. *)
let ledger_word_check (c : target_cost) field ~base words =
  let name = Printf.sprintf "ledger/%s.%s" c.target field in
  match base with
  | None -> chk ~new_value:(Printf.sprintf "%.0f" words) name false "missing in baseline"
  | Some base ->
      let old_value = Printf.sprintf "%.0f" base
      and new_value = Printf.sprintf "%.0f" words in
      let moved =
        Printf.sprintf "%+.0f words%s" (words -. base)
          (if base = 0.0 then ""
           else Printf.sprintf ", %+.2f%%" (100.0 *. ((words -. base) /. base)))
      in
      if words > base then
        chk ~old_value ~new_value name false
          (Printf.sprintf "rose %s: an allocation regression" moved)
      else if words < base then
        chk ~old_value ~new_value name false
          (Printf.sprintf
             "fell %s: re-baseline with bench all --jobs 1 and mv \
              BENCH_sim.new.json BENCH_sim.json"
             moved)
      else
        chk ~old_value ~new_value name true
          (Printf.sprintf "%s words, as in the baseline, %.3fs wall" new_value c.wall_s)

let ledger_checks ~profile baseline costs =
  let profile_check =
    match Json.to_str (Json.member "profile" baseline) with
    | Some p when p = profile ->
        chk ~old_value:p ~new_value:profile "ledger/profile" true
          ("words recorded under " ^ p)
    | Some p ->
        chk ~old_value:p ~new_value:profile "ledger/profile" false
          (Printf.sprintf "words recorded under %s, this build is %s" p profile)
    | None -> chk ~new_value:profile "ledger/profile" false "missing in baseline"
  in
  let rows = Json.to_arr (Json.member "targets" baseline) in
  profile_check
  :: List.concat_map
       (fun (c : target_cost) ->
         match
           List.find_opt
             (fun row -> Json.to_str (Json.member "name" row) = Some c.target)
             rows
         with
         | None -> [ chk ("ledger/" ^ c.target) false "target missing in baseline" ]
         | Some row ->
             let num field = Json.to_float (Json.member field row) in
             (* Promotion depends on where minor collections fall, which
                moves with the heap state a target starts from; words
                allocated straight into the major heap do not. *)
             let direct =
               match (num "major_words", num "promoted_words") with
               | Some major, Some promoted -> Some (major -. promoted)
               | _ -> None
             in
             [
               ledger_word_check c "minor_words" ~base:(num "minor_words")
                 c.minor_words;
               ledger_word_check c "direct_major_words" ~base:direct
                 (c.major_words -. c.promoted_words);
             ])
       costs

(* The serial per-target words a [bench all --jobs 1] record carries,
   judged by the same rule against another record: the ledger half of an
   A/B between two builds. *)
let ledger_diff a b =
  let num row field = Json.to_float (Json.member field row) in
  let costs =
    List.filter_map
      (fun row ->
        match
          ( Json.to_str (Json.member "name" row),
            num row "minor_words",
            num row "major_words",
            num row "promoted_words" )
        with
        | Some target, Some minor_words, Some major_words, Some promoted_words ->
            Some
              {
                target;
                wall_s = Option.value (num row "wall_s") ~default:0.0;
                minor_words;
                major_words;
                promoted_words;
              }
        | _ -> None)
      (Json.to_arr (Json.member "targets" b))
  in
  match (costs, Json.to_str (Json.member "profile" b)) with
  | [], _ | _, None ->
      [
        chk "ledger" false
          "second record has no per-target minor, major and promoted words \
           (bench all --jobs 1 under schema erebor-bench-sim/2 writes them)";
      ]
  | costs, Some profile -> ledger_checks ~profile a costs

(* Anchor verification against a flight recording: the journal's Run-span
   slice must reproduce the baseline's Fig. 9 rate row for the (workload,
   setting) pair named in its header. The rates are recomputed exactly the
   way the live path computes them — event counts between the Run span
   markers over [Hw.Cycles.to_seconds end - Hw.Cycles.to_seconds begin],
   the same float expression [Sim.Stats.diff] produces — so a journal of an
   undisturbed run matches the committed row to the last %.2f digit. *)
let check_journal ~journal baseline =
  (* One replay: find the Run span window on whichever stream opens it
     first and count the exit kinds inside it. *)
  let in_run = ref false and done_run = ref false in
  let t0 = ref 0 and t1 = ref 0 in
  let counts = Array.make Obs.Trace.n_kinds 0 in
  let stream ~machine:_ =
    let owner = ref false (* this stream opened the Run window *) in
    let em = Obs.Emitter.create () in
    Obs.Emitter.attach em (fun kind ~ts ~arg:_ ->
        match kind with
        | Obs.Trace.Span_begin Obs.Trace.Run when (not !in_run) && not !done_run
          ->
            in_run := true;
            owner := true;
            t0 := ts
        | Obs.Trace.Span_end Obs.Trace.Run when !in_run && !owner ->
            in_run := false;
            done_run := true;
            t1 := ts
        | _ when !in_run && !owner ->
            let i = Obs.Trace.index kind in
            counts.(i) <- counts.(i) + 1
        | _ -> ());
    em
  in
  match Obs.Journal.replay ~path:journal stream with
  | Result.Error e -> [ chk "journal/read" false e ]
  | Result.Ok info -> (
      let complete =
        chk "journal/complete" info.Obs.Journal.complete
          (if info.Obs.Journal.complete then
             Printf.sprintf "finalized, %d events in %d segments"
               info.Obs.Journal.events info.Obs.Journal.segments
           else "journal not finalized (truncated tail)")
      in
      let meta k = List.assoc_opt k info.Obs.Journal.meta in
      match (meta "workload", meta "setting") with
      | None, _ | _, None ->
          [
            complete;
            chk "journal/meta" false
              "header lacks workload/setting metadata (record with \
               erebor-sim run --record)";
          ]
      | Some program, Some setting ->
          if not !done_run then
            [
              complete;
              chk "journal/run-span" false
                "no complete Run span in the recording";
            ]
          else
            let span =
              chk "journal/run-span" true
                (Printf.sprintf "%s @ %s, run window %d..%d cycles" program
                   setting !t0 !t1)
            in
            (* Reproduce Sim.Stats.diff's float math bit for bit. *)
            let seconds =
              Hw.Cycles.to_seconds !t1 -. Hw.Cycles.to_seconds !t0
            in
            let rate kind =
              let n = counts.(Obs.Trace.index kind) in
              if seconds <= 0.0 then 0.0 else float_of_int n /. seconds
            in
            let row =
              List.find_opt
                (fun r ->
                  Json.to_str (Json.member "program" r) = Some program
                  && Json.to_str (Json.member "setting" r) = Some setting)
                (Json.to_arr (Json.member "fig9" baseline))
            in
            let rates =
              match row with
              | None ->
                  [
                    chk "journal/fig9-row" false
                      (Printf.sprintf "baseline has no fig9 row for %s @ %s"
                         program setting);
                  ]
              | Some row ->
                  List.map
                    (fun (field, kind) ->
                      rendered_check ("journal/" ^ field) ~fmt:"%.2f" row field
                        (rate kind))
                    [
                      ("pf_rate", Obs.Trace.Page_fault);
                      ("timer_rate", Obs.Trace.Timer_irq);
                      ("ve_rate", Obs.Trace.Ve_exit);
                      ("emc_rate", Obs.Trace.Emc_entry);
                    ]
            in
            complete :: span :: rates)

let check_journal_file ~journal ~path () =
  Result.map (check_journal ~journal) (read_baseline path)

(* A minimal baseline covering just the exact anchors, regenerated from the
   current build — lets tests exercise the gate (and seed mismatches into
   it) without the committed file. *)
let render_anchors ?instrument () =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n  \"schema\": \"%s\",\n  \"table3\": [\n" schema;
  let t3 = Eval.table3 ?instrument () in
  List.iteri
    (fun i (r : Eval.transition_row) ->
      Printf.bprintf buf "    { \"transition\": \"%s\", \"cycles\": %d }%s\n"
        r.Eval.transition r.Eval.cycles
        (if i = List.length t3 - 1 then "" else ","))
    t3;
  Buffer.add_string buf "  ],\n  \"table4\": [\n";
  let t4 = Eval.table4 ?instrument () in
  List.iteri
    (fun i (r : Eval.privop_row) ->
      Printf.bprintf buf
        "    { \"op\": \"%s\", \"native_cycles\": %d, \"erebor_cycles\": %d }%s\n"
        r.Eval.op r.Eval.native_cycles r.Eval.erebor_cycles
        (if i = List.length t4 - 1 then "" else ","))
    t4;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Shared check helpers                                                *)
(* ------------------------------------------------------------------ *)

(* [zero_alloc name ~per ~n f] runs [f 0] .. [f (n - 1)] and passes iff
   they allocate exactly 0 minor words; warm [f]'s state up first, the
   check is about the steady state. [per] names one call in the report.
   [Gc.minor_words] boxes its own result, so two back-to-back calls differ
   by a small constant; calibrate it out so the check can demand an exact
   zero. *)
let zero_alloc name ~per ~n f =
  let probe =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let m0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  let dw = Gc.minor_words () -. m0 -. probe in
  chk ~old_value:("0.0 words/" ^ per)
    ~new_value:(Printf.sprintf "%.4f words/%s" (dw /. float_of_int n) per)
    name (dw = 0.0)
    (Printf.sprintf "%.0f minor words across %d steady-state %ss" dw n per)

(* Scratch journals live in the system temp directory and are removed on
   the way out, whatever the checks did. *)
let with_scratch f =
  let path = Filename.temp_file "erebor-gate" ".ejrn" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

module J = Obs.Journal

(* ------------------------------------------------------------------ *)
(* The sink-transparency law                                           *)
(* ------------------------------------------------------------------ *)

let audit_key = Crypto.Sha256.digest_string "bench gate audit key"

let sinks =
  [
    ("counter", fun obs -> ignore (Obs.Counter.attach obs (Obs.Counter.create ())));
    ("ring", fun obs -> ignore (Obs.Ring.attach obs (Obs.Ring.create ~capacity:64)));
    ("attrib", fun obs -> ignore (Obs.Attrib.attach obs (Obs.Attrib.create ())));
    ("chrome", fun obs -> ignore (Obs.Chrome.attach obs (Obs.Chrome.create ())));
    ( "histogram",
      fun obs -> ignore (Obs.Histogram.attach obs (Obs.Histogram.create ())) );
    ( "window",
      fun obs ->
        ignore (Obs.Window.attach obs (Obs.Window.create ~width:1_000_000 ~buckets:64 ())) );
    ( "journal",
      fun obs ->
        (* The writer keeps its descriptor; the name is unlinked at once so
           no scratch file outlives the run. *)
        let path = Filename.temp_file "erebor-law" ".ejrn" in
        let w = J.Writer.create ~path () in
        Sys.remove path;
        J.Writer.attach w obs );
    ( "sketches",
      fun obs -> ignore (Obs.Sketch.Family.attach obs (Obs.Sketch.Family.create ())) );
    ("audit", fun obs -> Obs.Emitter.set_audit obs (Some (Obs.Audit.create ~key:audit_key)));
    ( "routed",
      fun obs ->
        (* Subscribed to a kind subset only: the EMC round trip and the
           demand-fault path. *)
        let seen = ref 0 in
        Obs.Emitter.attach obs
          ~kinds:
            Obs.Trace.
              [ Emc_entry; emc_mmu; Page_fault; span_begin Emc_gate;
                span_end Emc_gate ]
          (fun _ ~ts:_ ~arg -> seen := !seen + arg) );
  ]

(* One Fig. 9 cell, drugbank under full Erebor, on a machine built over
   [obs] when given. *)
let law_cell obs =
  let m = Sim.Machine.create ?obs ~setting:Sim.Config.Erebor_full () in
  let r = Sim.Machine.run m ((List.assoc "drugbank" Eval.all_programs) ()) in
  Obs.Emitter.finalize (Sim.Machine.obs m)
    ~now:(Hw.Cycles.now (Sim.Machine.clock m));
  (r.Sim.Machine.init_cycles, r.Sim.Machine.run_cycles, Sim.Machine.snapshot m)

let transparent instrument =
  let plain = render_anchors () in
  let observed = render_anchors ~instrument () in
  let bare_init, bare_run, bare_stats = law_cell None in
  let obs = Obs.Emitter.create () in
  instrument obs;
  let init, run, stats = law_cell (Some obs) in
  let same name show bare seen =
    chk ~old_value:(show bare) ~new_value:(show seen) ("law/" ^ name)
      (bare = seen)
      (if bare = seen then "drugbank under full Erebor: identical with sinks attached"
       else "drugbank under full Erebor: CHANGED with sinks attached")
  in
  let show_stats (s : Sim.Stats.snapshot) =
    Printf.sprintf "%d cycles, %d emc, %d pf" s.Sim.Stats.cycles
      s.Sim.Stats.emc_total s.Sim.Stats.page_faults
  in
  [
    chk "law/anchors-identical" (plain = observed)
      (if plain = observed then
         "Table 3/4 anchor document byte-identical with sinks attached"
       else "Table 3/4 anchor document CHANGED with sinks attached");
    same "fig9-init-cycles" string_of_int bare_init init;
    same "fig9-run-cycles" string_of_int bare_run run;
    same "fig9-stats" show_stats bare_stats stats;
  ]

let emit_mix = Array.of_list Obs.Trace.all

let bare_emitter () =
  Sim.Machine.obs
    (Sim.Machine.create ~frames:32768 ~cma_frames:4096
       ~setting:Sim.Config.Erebor_full ())

let emit_zero_alloc () =
  let obs = bare_emitter () in
  let n = Array.length emit_mix in
  zero_alloc "law/emit-zero-alloc" ~per:"event" ~n:10_000 (fun i ->
      Obs.Emitter.emit obs emit_mix.(i mod n) ~ts:i ~arg:i)

(* The kernel's hottest privileged crossing, warm: re-store a live user
   leaf the way [pte_churn] does, natively and through the monitor under
   each isolation backend. An entry is an immediate int on both sides of
   the privop closure, and an accepted leaf answers the constant [Ok ()],
   so a crossing allocates nothing. *)
let privops_zero_alloc () =
  List.map
    (fun (label, setting, backend) ->
      let m =
        Sim.Machine.create ~frames:32768 ~cma_frames:4096 ?backend ~setting ()
      in
      let kern = Sim.Machine.kern m in
      let task = Kernel.create_task kern ~name:"churn" ~kind:Kernel.Task.Normal in
      let addr =
        Result.get_ok
          (Kernel.mmap kern task ~len:Hw.Phys_mem.page_size ~prot:Kernel.Vma.prot_rw
             ~kind:Kernel.Vma.Anon)
      in
      Result.get_ok (Kernel.handle_page_fault kern task ~addr ~kind:Hw.Fault.Write);
      let slot =
        Option.get
          (Hw.Page_table.leaf_addr kern.Kernel.mem ~root_pfn:task.Kernel.Task.root_pfn addr)
      in
      let write_pte = kern.Kernel.privops.Kernel.Privops.write_pte in
      let restore _ = write_pte ~pte_addr:slot (Hw.Phys_mem.read_u64 kern.Kernel.mem slot) in
      for i = 1 to 16 do restore i done;
      zero_alloc ("law/privops-zero-alloc/" ^ label) ~per:"crossing" ~n:10_000 restore)
    (("native", Sim.Config.Native, None)
    :: List.map
         (fun k -> (Erebor.Isolation.kind_name k, Sim.Config.Erebor_full, Some k))
         Erebor.Isolation.[ Pks; Write_protect; Tme_mk ])

(* Every Fig. 9 synchronisation op draws one contention coin: the DRBG
   keeps its keyed ChaCha20 state across refills and its draws inline
   unboxed, so warm draws allocate nothing. 100k mixed draws cross about
   12k refills. *)
let drbg_zero_alloc () =
  let d = Crypto.Drbg.create ~seed:"bench gate drbg" in
  ignore (Crypto.Drbg.bytes d 256);
  let acc = ref 0 in
  zero_alloc "drbg/zero-alloc" ~per:"draw" ~n:100_000 (fun i ->
      match i mod 3 with
      | 0 -> if Crypto.Drbg.float d < 0.5 then incr acc
      | 1 -> acc := !acc + Crypto.Drbg.int d (1 + (i land 1023))
      | _ -> acc := !acc lxor Int64.to_int (Crypto.Drbg.int64 d))

(* ------------------------------------------------------------------ *)
(* Flight recorder: lossless, allocation-free, diffable                *)
(* ------------------------------------------------------------------ *)

(* One drugbank session under full Erebor journaled to [path]; [extra]
   cycles of compute appended to the body seed a user-phase slowdown.
   Returns the live counter view. *)
let record_drugbank ~path ~extra =
  let spec = (List.assoc "drugbank" Eval.all_programs) () in
  let spec =
    if extra = 0 then spec
    else
      {
        spec with
        Sim.Machine.body =
          (fun ops ->
            spec.Sim.Machine.body ops;
            ops.Sim.Machine.compute extra);
      }
  in
  let obs = Obs.Emitter.create () in
  let w =
    J.Writer.create
      ~meta:
        [
          ("workload", if extra = 0 then "drugbank" else "drugbank+seeded-slowdown");
          ("setting", Sim.Config.name Sim.Config.Erebor_full);
        ]
      ~path ()
  in
  J.Writer.attach ~machine:"sim" w obs;
  let m = Sim.Machine.create ~obs ~setting:Sim.Config.Erebor_full () in
  ignore (Sim.Machine.run m spec);
  Obs.Emitter.finalize obs ~now:(Hw.Cycles.now (Sim.Machine.clock m));
  Sim.Machine.counters m

let replay_check ~path live =
  let robs = Obs.Emitter.create () in
  let replayed = Obs.Counter.attach robs (Obs.Counter.create ()) in
  match J.replay ~path (fun ~machine:_ -> robs) with
  | Result.Error e -> chk "journal/replay-counters" false e
  | Result.Ok info ->
      let mismatches =
        List.filter
          (fun k ->
            Obs.Counter.count live k <> Obs.Counter.count replayed k
            || Obs.Counter.arg_sum live k <> Obs.Counter.arg_sum replayed k)
          Obs.Trace.all
      in
      chk
        ~old_value:(Printf.sprintf "%d live events" (Obs.Counter.total live))
        ~new_value:(Printf.sprintf "%d replayed events" (Obs.Counter.total replayed))
        "journal/replay-counters" (mismatches = [])
        (if mismatches = [] then
           Printf.sprintf
             "replayed %d events: count and arg-sum equal for all %d kinds"
             info.J.events (List.length Obs.Trace.all)
         else
           "live/replay disagree on: "
           ^ String.concat ", " (List.map Obs.Trace.name mismatches))

(* A segment large enough that no seal (and thus no I/O or framing) falls
   inside the measured window — the property is the per-event record path. *)
let journal_zero_alloc ~smoke =
  with_scratch @@ fun path ->
  let n = if smoke then 50_000 else 200_000 in
  let w = J.Writer.create ~segment_bytes:(1 lsl 22) ~path () in
  let s = J.Writer.stream w ~machine:"alloc" in
  for i = 1 to 1024 do
    J.Writer.record w ~stream:s Obs.Trace.Page_fault ~ts:i ~arg:(i * 64)
  done;
  let check =
    zero_alloc "journal/zero-alloc" ~per:"event" ~n (fun i ->
        J.Writer.record w ~stream:s Obs.Trace.Page_fault ~ts:(1024 + i)
          ~arg:(i land 4095 * 64))
  in
  J.Writer.close w ~now:(1024 + n);
  check

let diff_checks ~rec_path ~slow_path =
  let self =
    match Obs.Diff.compare_files ~a:rec_path ~b:rec_path with
    | Result.Error e -> chk "journal/diff-self" false e
    | Result.Ok d ->
        let zero =
          List.for_all (fun (e : Obs.Diff.entry) -> e.Obs.Diff.delta = 0)
            d.Obs.Diff.entries
          && Obs.Diff.regressions d = []
        in
        chk ~old_value:(string_of_int d.Obs.Diff.total_a)
          ~new_value:(string_of_int d.Obs.Diff.total_b)
          "journal/diff-self" zero
          (if zero then
             Printf.sprintf "self-diff silent across %d phases"
               (List.length d.Obs.Diff.entries)
           else "self-diff reported nonzero deltas")
  in
  let seeded =
    match Obs.Diff.compare_files ~a:rec_path ~b:slow_path with
    | Result.Error e -> chk "journal/diff-regression" false e
    | Result.Ok d ->
        let regs = Obs.Diff.regressions ~threshold:5.0 ~min_cycles:1000 d in
        let hits_run =
          List.exists
            (fun (e : Obs.Diff.entry) -> e.Obs.Diff.ephase = Obs.Trace.Run)
            regs
        in
        chk
          ~old_value:(string_of_int d.Obs.Diff.total_a)
          ~new_value:(string_of_int d.Obs.Diff.total_b)
          "journal/diff-regression"
          (regs <> [] && hits_run)
          (if regs = [] then "seeded slowdown NOT flagged"
           else if not hits_run then
             "regression flagged, but not on the seeded user/run phase"
           else
             Printf.sprintf "seeded slowdown flagged (%d regressing phase(s))"
               (List.length regs))
  in
  [ self; seeded ]

(* The seeded slowdown is sized off the recording's own Run-phase self
   cycles, so the percentage is workload-independent. *)
let seeded_extra ~rec_path =
  match Obs.Diff.attribution ~path:rec_path with
  | Result.Ok (arr, _) ->
      let run_self, _ = arr.(Obs.Trace.phase_index Obs.Trace.Run) in
      max 1_000_000 (run_self / 4)
  | Result.Error _ -> 100_000_000

let journal_checks ~baseline ~smoke =
  with_scratch @@ fun rec_path ->
  with_scratch @@ fun slow_path ->
  let live = record_drugbank ~path:rec_path ~extra:0 in
  let replay = replay_check ~path:rec_path live in
  let alloc = journal_zero_alloc ~smoke in
  ignore (record_drugbank ~path:slow_path ~extra:(seeded_extra ~rec_path));
  let from_journal =
    match check_journal_file ~journal:rec_path ~path:baseline () with
    | Result.Error e -> [ chk "journal/from-journal" false e ]
    | Result.Ok verdict -> verdict
  in
  (replay :: alloc :: diff_checks ~rec_path ~slow_path) @ from_journal

(* ------------------------------------------------------------------ *)
(* Isolation and attribution                                           *)
(* ------------------------------------------------------------------ *)

(* Cabin-style confinement: every adversarial probe attempt on every
   (backend, density) machine must be denied. *)
let density_checks ~jobs ~smoke =
  List.map
    (fun (r : Density.scale_row) ->
      chk
        (Printf.sprintf "density/must-deny/%s@%d"
           (Erebor.Isolation.kind_name r.Density.sbackend)
           r.Density.tenants)
        (r.Density.violations = 0)
        (Printf.sprintf "%d probe attempts not denied with %d tenants"
           r.Density.violations r.Density.tenants))
    (Density.scaling ?jobs ~smoke ())

let attrib_checks ~jobs ~smoke =
  List.map
    (fun (r : Eval.attrib_row) ->
      let attributed =
        List.fold_left (fun acc (_, _, c) -> acc + c) 0 r.Eval.contexts
      in
      chk
        (Printf.sprintf "attrib/%s@%s" r.Eval.aprogram
           (Sim.Config.name r.Eval.asetting))
        (attributed + r.Eval.unattributed_cycles = r.Eval.total_cycles)
        (Printf.sprintf "%d attributed + %d outside, %d total" attributed
           r.Eval.unattributed_cycles r.Eval.total_cycles))
    (Eval.attrib ?jobs ~smoke ())

(* ------------------------------------------------------------------ *)
(* The gate                                                            *)
(* ------------------------------------------------------------------ *)

let gates ~baseline ~jobs =
  [
    ( "anchors",
      fun ~smoke ->
        match check_file ~fig9:(not smoke) ?jobs ~path:baseline () with
        | Result.Ok v -> v
        | Result.Error e -> [ chk "baseline" false e ] );
    ( "law",
      fun ~smoke:_ ->
        transparent (fun obs -> List.iter (fun (_, attach) -> attach obs) sinks)
        @ [ emit_zero_alloc (); drbg_zero_alloc () ]
        @ privops_zero_alloc () );
    ("journal", journal_checks ~baseline);
    ("density", density_checks ~jobs);
    ("attrib", attrib_checks ~jobs);
  ]
