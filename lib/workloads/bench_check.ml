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

   The record [bench all] writes comes from this module too ([record]), so
   the writer and the readers share each field's name and precision. *)

module Json = Bench_gate.Json

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
    let width title f =
      List.fold_left (fun w c -> max w (String.length (f c))) (String.length title) fails
    in
    let w_name = max 24 (width "" (fun c -> c.name)) in
    let w_old = width "old (baseline)" (fun c -> cell c.old_value) in
    let w_new = width "new (regenerated)" (fun c -> cell c.new_value) in
    let row a b c = Format.fprintf fmt "  %-*s  %-*s  %-*s@." w_name a w_old b w_new c in
    row "check" "old (baseline)" "new (regenerated)";
    row (String.make w_name '-') (String.make w_old '-') (String.make w_new '-');
    List.iter
      (fun c ->
        row c.name (cell c.old_value) (cell c.new_value);
        if c.old_value = None && c.new_value = None then
          Format.fprintf fmt "  %-*s    %s@." w_name "" c.detail)
      fails
  end

(* ------------------------------------------------------------------ *)
(* The run record                                                      *)
(* ------------------------------------------------------------------ *)

(* The run-record schema. v2 added the allocation ledger: the build
   profile and, per [bench all] target, its serial minor and major words. *)
let schema = "erebor-bench-sim/2"

(* One field of a record row as the record stores it. A row's [Str]
   fields are its key; [Int] fields are compared exactly and [Fixed]
   ones at the digits they are written with; a [Note] is written and
   never judged. *)
type value = Str of string | Int of int | Fixed of int * float | Note of int

let render = function
  | Str s -> "\"" ^ Obs.Audit.escape_json s ^ "\""
  | Int n | Note n -> string_of_int n
  | Fixed (digits, v) -> Printf.sprintf "%.*f" digits v

let obj fields =
  "{ "
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (render v)) fields)
  ^ " }"

let rate v = Fixed (2, v)

let transition_row (r : Eval.transition_row) =
  [ ("transition", Str r.transition); ("cycles", Int r.cycles);
    ("paper_cycles", Note r.paper_cycles) ]

let privop_row (r : Eval.privop_row) =
  [ ("op", Str r.op); ("native_cycles", Int r.native_cycles);
    ("erebor_cycles", Int r.erebor_cycles) ]

let fig9_row (r : Eval.program_row) =
  [ ("program", Str r.program); ("setting", Str (Sim.Config.name r.setting));
    ("overhead_pct", Fixed (4, r.overhead_pct)); ("pf_rate", rate r.pf_rate);
    ("timer_rate", rate r.timer_rate); ("ve_rate", rate r.ve_rate);
    ("emc_rate", rate r.emc_rate) ]

type target_cost = {
  target : string;
  wall_s : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

type host = {
  profile : string;
  jobs : int;
  scale : float;
  total_wall_s : float;
  peak_rss_kb : int option;
  gc : Gc.stat;
  costs : target_cost list;
}

(* Per-target words only when the run is serial: with a domain pool, other
   domains allocate on a target's behalf. *)
let target_row ~serial (c : target_cost) =
  ("name", Str c.target) :: ("wall_s", Fixed (6, c.wall_s))
  :: (if serial then
        [ ("minor_words", Fixed (0, c.minor_words));
          ("major_words", Fixed (0, c.major_words));
          ("promoted_words", Fixed (0, c.promoted_words)) ]
      else [])

let record host ~table3 ~table4 ~fig9 =
  let rows = function
    | [] -> "[]"
    | l -> "[\n" ^ String.concat ",\n" (List.map (fun r -> "    " ^ obj r) l) ^ "\n  ]"
  in
  let host_fields =
    match host with
    | None -> []
    | Some h ->
        [
          ("profile", render (Str h.profile));
          ("jobs", render (Int h.jobs));
          ("scale", render (Fixed (6, h.scale)));
          ("total_wall_s", render (Fixed (6, h.total_wall_s)));
          ("peak_rss_kb", Option.fold ~none:"null" ~some:string_of_int h.peak_rss_kb);
          ( "gc",
            obj
              [ ("minor_words", Fixed (0, h.gc.Gc.minor_words));
                ("major_words", Fixed (0, h.gc.Gc.major_words));
                ("major_collections", Int h.gc.Gc.major_collections) ] );
          ("targets", rows (List.map (target_row ~serial:(h.jobs = 1)) h.costs));
        ]
  in
  let entries =
    (("schema", render (Str schema)) :: host_fields)
    @ [ ("table3", rows (List.map transition_row table3));
        ("table4", rows (List.map privop_row table4)) ]
    @ if fig9 = [] then [] else [ ("fig9", rows (List.map fig9_row fig9)) ]
  in
  "{\n"
  ^ String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  \"%s\": %s" k v) entries)
  ^ "\n}\n"

(* ------------------------------------------------------------------ *)
(* The anchors                                                         *)
(* ------------------------------------------------------------------ *)

(* A value against the baseline's, both rendered the way the record
   writes them. *)
let rendered name ~base cur =
  match base with
  | None -> chk ~new_value:cur name false "missing in baseline"
  | Some base ->
      chk ~old_value:base ~new_value:cur name (base = cur)
        (if base = cur then cur else Printf.sprintf "baseline %s, regenerated %s" base cur)

let field_check name baseline_row (field, v) =
  let member = Json.member field baseline_row in
  match v with
  | Str _ | Note _ -> None
  | Int _ -> Some (rendered name ~base:(Option.map string_of_int (Json.to_int member)) (render v))
  | Fixed (digits, _) ->
      Some
        (rendered name
           ~base:(Option.map (Printf.sprintf "%.*f" digits) (Json.to_float member))
           (render v))

let key_of row = String.concat ":" (List.filter_map (function _, Str s -> Some s | _ -> None) row)

(* One family of anchors: every baseline row against the regenerated row
   with the same key, field by field, then a coverage check that every
   regenerated row has a baseline row. *)
let family_checks family baseline current =
  let keys =
    match current with
    | r :: _ -> List.filter_map (function k, Str _ -> Some k | _ -> None) r
    | [] -> []
  in
  let seen = ref [] in
  let row_checks =
    List.concat_map
      (fun base ->
        match List.map (fun k -> Json.to_str (Json.member k base)) keys with
        | ks when List.mem None ks ->
            [ chk family false ("baseline row without " ^ String.concat "/" keys) ]
        | ks -> (
            let key = String.concat ":" (List.map Option.get ks) in
            seen := key :: !seen;
            match List.find_opt (fun r -> key_of r = key) current with
            | None ->
                [ chk (Printf.sprintf "%s/%s" family key) false
                    "anchor present in baseline but not regenerated" ]
            | Some r ->
                List.filter_map
                  (fun ((field, _) as fv) ->
                    field_check (Printf.sprintf "%s/%s.%s" family key field) base fv)
                  r))
      (Json.to_arr (Json.member family baseline))
  in
  let coverage =
    match List.filter (fun r -> not (List.mem (key_of r) !seen)) current with
    | [] -> chk (family ^ "/coverage") true (Printf.sprintf "%d anchors" (List.length current))
    | m ->
        chk (family ^ "/coverage") false
          ("regenerated anchors missing from baseline: "
          ^ String.concat ", " (List.map key_of m))
  in
  row_checks @ [ coverage ]

(* Anchor regeneration may take this multiple of the baseline suite's CPU
   time (check [wall]). *)
let wall_tolerance = 1.5

let check_json ~fig9 baseline =
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
  let t3 = family_checks "table3" baseline (List.map transition_row table3) in
  let t4 = family_checks "table4" baseline (List.map privop_row table4) in
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
  (* The Fig. 9 rows are regenerated outside the budget window: they cost
     a large share of a whole suite, while the budget bounds anchor
     regeneration. Host allocation is the ledger's (see below); CPU time is
     bounded only here. *)
  let f9 =
    match fig9 with
    | None -> []
    | Some rows -> family_checks "fig9" baseline (List.map fig9_row rows)
  in
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
  | json -> Result.map_error (fun e -> path ^ ": " ^ e) (Json.parse json)
  | exception Sys_error e -> Result.Error e

let check_string ~fig9 json = Result.map (check_json ~fig9) (parse_baseline json)

(* ------------------------------------------------------------------ *)
(* The allocation ledger                                               *)
(* ------------------------------------------------------------------ *)

(* A record's serial [targets] rows, by the one decoder both ledger
   verdicts read with; a row without its words (a parallel run's) is
   skipped. *)
let costs_of record =
  List.filter_map
    (fun row ->
      let num field = Json.to_float (Json.member field row) in
      match
        ( Json.to_str (Json.member "name" row),
          num "minor_words",
          num "major_words",
          num "promoted_words" )
      with
      | Some target, Some minor_words, Some major_words, Some promoted_words ->
          let wall_s = Option.value (num "wall_s") ~default:0.0 in
          Some { target; wall_s; minor_words; major_words; promoted_words }
      | _ -> None)
    (Json.to_arr (Json.member "targets" record))

(* Promotion depends on where minor collections fall, which moves with the
   heap state a target starts from; words allocated straight into the
   major heap do not. *)
let direct_major c = c.major_words -. c.promoted_words

(* One check per (target, counter), exact to the word: a serial target's
   counts reproduce to the word across runs and checkouts. Both directions
   fail: a rise is a regression, a drop means the committed ledger no
   longer describes the build and must be re-baselined in the same
   change. *)
let ledger_word_check (c : target_cost) field ~base words =
  let name = Printf.sprintf "ledger/%s.%s" c.target field in
  let old_value = Printf.sprintf "%.0f" base and new_value = Printf.sprintf "%.0f" words in
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
  let base = costs_of baseline in
  profile_check
  :: List.concat_map
       (fun c ->
         match List.find_opt (fun b -> b.target = c.target) base with
         | None -> [ chk ("ledger/" ^ c.target) false "target missing in baseline" ]
         | Some b ->
             [
               ledger_word_check c "minor_words" ~base:b.minor_words c.minor_words;
               ledger_word_check c "direct_major_words" ~base:(direct_major b)
                 (direct_major c);
             ])
       costs

(* The serial per-target words a [bench all --jobs 1] record carries,
   judged by the same rule against another record: the ledger half of an
   A/B between two builds. *)
let ledger_diff a b =
  match (costs_of b, Json.to_str (Json.member "profile" b)) with
  | [], _ | _, None ->
      [
        chk "ledger" false
          "second record has no per-target minor, major and promoted words \
           (bench all --jobs 1 under schema erebor-bench-sim/2 writes them)";
      ]
  | costs, Some profile -> ledger_checks ~profile a costs

(* ------------------------------------------------------------------ *)
(* Anchors from a flight recording                                     *)
(* ------------------------------------------------------------------ *)

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
            let rate_of kind =
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
                  List.filter_map
                    (fun (field, kind) ->
                      field_check ("journal/" ^ field) row (field, rate (rate_of kind)))
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

(* ------------------------------------------------------------------ *)
(* The sink-transparency law                                           *)
(* ------------------------------------------------------------------ *)

module J = Obs.Journal

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

let drugbank () = (List.assoc "drugbank" Eval.all_programs) ()

(* One Fig. 9 cell, drugbank under full Erebor, on a machine built over
   [obs] when given. *)
let law_cell obs =
  let m = Sim.Machine.create ?obs ~setting:Sim.Config.Erebor_full () in
  let r = Sim.Machine.run m (drugbank ()) in
  Obs.Emitter.finalize (Sim.Machine.obs m)
    ~now:(Hw.Cycles.now (Sim.Machine.clock m));
  (r.Sim.Machine.init_cycles, r.Sim.Machine.run_cycles, Sim.Machine.snapshot m)

let transparent instrument =
  let anchors instrument =
    record None ~table3:(Eval.table3 ?instrument ()) ~table4:(Eval.table4 ?instrument ())
      ~fig9:[]
  in
  let plain = anchors None in
  let observed = anchors (Some instrument) in
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

(* ------------------------------------------------------------------ *)
(* The zero-alloc table                                                *)
(* ------------------------------------------------------------------ *)

(* One steady-state row: after [warm] calls of [body], [calls] more may
   allocate at most [budget] minor words each ([None]: not judged per
   call). A [scaled] row's cost grows with its task's populated pages, so
   it is also measured on a [large_pages] task against a [small_pages] one,
   and its [<name>/page] row demands 0 words per extra page. *)
type spec = {
  name : string;
  per : string;
  warm : int;
  calls : int;
  budget : float option;
  scaled : bool;
  body : int -> unit;
}

let spec ?(warm = 16) ?(budget = Some 0.0) ?(scaled = false) name ~per calls body =
  { name; per; warm; calls; budget; scaled; body }

(* A family builds the state its specs share, on a [pages]-page task where
   that matters, and hands the specs to [k] while that state is live. *)
type family = pages:int -> (spec list -> unit) -> unit

let small_pages = 16
let large_pages = 64

(* Every kind, in [Obs.Trace.all] order, on a fresh erebor machine's
   emitter (its built-in counts and no sink). *)
let emit_family ~pages:_ k =
  let obs =
    Sim.Machine.obs
      (Sim.Machine.create ~frames:32768 ~cma_frames:4096 ~setting:Sim.Config.Erebor_full ())
  in
  let mix = Array.of_list Obs.Trace.all in
  let n = Array.length mix in
  k
    [ spec "law/emit-zero-alloc" ~warm:0 ~per:"event" 10_000 (fun i ->
          Obs.Emitter.emit obs mix.(i mod n) ~ts:i ~arg:i) ]

(* Every Fig. 9 synchronisation op draws one contention coin: the DRBG
   keeps its keyed ChaCha20 state across refills and its draws inline
   unboxed, so warm draws allocate nothing. 100k mixed draws cross about
   12k refills. *)
let drbg_family ~pages:_ k =
  let d = Crypto.Drbg.create ~seed:"bench gate drbg" in
  ignore (Crypto.Drbg.bytes d 256);
  let acc = ref 0 in
  k
    [ spec "drbg/zero-alloc" ~warm:0 ~per:"draw" 100_000 (fun i ->
          match i mod 3 with
          | 0 -> if Crypto.Drbg.float d < 0.5 then incr acc
          | 1 -> acc := !acc + Crypto.Drbg.int d (1 + (i land 1023))
          | _ -> acc := !acc lxor Int64.to_int (Crypto.Drbg.int64 d)) ]

(* The kernel's hottest privileged crossings, natively and through the
   monitor under each isolation backend: re-storing a live user leaf the
   way [pte_churn] does (an entry is an immediate int on both sides of the
   privop closure, and an accepted leaf answers the constant [Ok ()]), a
   SMAP user copy alternating direction on the page the leaf maps ([/usercopy]:
   its operands travel in the monitor's copy slot and the access context
   is refreshed in place around stac/clac) and the host I/O kick, a VMCALL
   through the tdcall privop ([/tdcall]: the host counts exits instead of
   logging them). *)
let privops_family (label, setting, backend) ~pages:_ k =
  let m = Sim.Machine.create ~frames:32768 ~cma_frames:4096 ?backend ~setting () in
  let kern = Sim.Machine.kern m in
  let ops = kern.Kernel.privops in
  let task = Kernel.create_task kern ~name:"churn" ~kind:Kernel.Task.Normal in
  let addr =
    Kernel.mmap kern task ~len:Hw.Phys_mem.page_size ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon
  in
  Result.get_ok (Kernel.handle_page_fault kern task ~addr ~kind:Hw.Fault.Write);
  let slot =
    Option.get
      (Hw.Page_table.leaf_addr kern.Kernel.mem ~root_pfn:task.Kernel.Task.root_pfn addr)
  in
  ops.Kernel.Privops.write_cr3 ~root_pfn:task.Kernel.Task.root_pfn;
  let buf = Bytes.make 64 'u' in
  let hlt = Tdx.Ghci.Vmcall Tdx.Ghci.Hlt in
  let name = "law/privops-zero-alloc/" ^ label in
  k
    [
      spec name ~per:"crossing" 10_000 (fun _ ->
          ops.Kernel.Privops.write_pte ~pte_addr:slot (Hw.Phys_mem.read_u64 kern.Kernel.mem slot));
      spec (name ^ "/usercopy") ~per:"crossing" 10_000 (fun i ->
          if i land 1 = 0 then
            ops.Kernel.Privops.copy_from_user_into ~user_addr:addr ~buf ~off:0 ~len:64
          else ops.Kernel.Privops.copy_to_user_from ~user_addr:addr ~buf ~off:0 ~len:64);
      spec (name ^ "/tdcall") ~per:"crossing" 2_000 (fun _ ->
          ignore (ops.Kernel.Privops.tdcall hlt));
    ]

(* Every op a Fig. 9 session step repeats, on a drugbank session, with the
   sizes [Workload.to_spec] gives them: [parallel] is one 10 ms step of
   every thread (five timer ticks at drugbank's 500 Hz) with its 90 sync
   ops. 64 warm-up calls per op rotate the scheduler through every task
   and fault the region's first pages in. No Fig. 9 step runs [cpuid], but
   its row pins the session's #VE path: the kernel's vmcall natively and
   under erebor-mmu, the monitor's cached answer once the sandbox's exits
   are interposed. *)
let step_family setting ~pages:_ k =
  let session = drugbank () in
  let step_cycles = 21_000_000 * session.Sim.Machine.threads in
  let body (ops : Sim.Machine.ops) =
    let step op f =
      spec ~warm:64 ~per:"call"
        (Printf.sprintf "law/step-zero-alloc/%s/%s" (Sim.Config.name setting) op)
        500 f
    in
    k
      Sim.Machine.
        [
          step "parallel" (fun _ -> ops.parallel ~total:step_cycles ~sync_ops:90);
          step "host_io" (fun _ -> ops.host_io ~bytes:2048);
          step "cold_fault" (fun _ -> ops.cold_fault ());
          step "pte_churn" (fun _ -> ops.pte_churn ~n:1);
          step "sync_op" (fun i -> ops.sync_op ~contended:(i land 1 = 0));
          step "service" (fun _ -> ops.service ());
          step "cpuid" (fun _ -> ops.cpuid ());
        ]
  in
  ignore (Sim.Machine.run_fresh ~setting { session with Sim.Machine.body })

(* The kernel paths of the Fig. 8 LMBench loops, on a [pages]-page
   LMBench-shaped normal task. The one word budget is [mmap_cycle]'s: a new
   mapping keeps its 5-word region record. [fork_exit] is judged per page
   only. *)
let kernel_family setting ~pages k =
  let body (ops : Sim.Machine.ops) =
    let op ?budget ?scaled name calls f =
      spec ?budget ?scaled ~per:"call"
        (Printf.sprintf "law/kernel-zero-alloc/%s/%s" (Sim.Config.name setting) name)
        calls f
    in
    k
      Sim.Machine.
        [
          op "read" 500 (fun _ -> ops.fs_io ~write:false ~len:4096);
          op "write" 500 (fun _ -> ops.fs_io ~write:true ~len:4096);
          op "signal" 500 (fun _ -> ops.signal ());
          op "cpuid" 500 (fun _ -> ops.cpuid ());
          op "mmap_cycle" 100 ~budget:(Some 5.0) ~scaled:true (fun _ -> ops.mmap_cycle ~pages);
          op "fork_exit" 40 ~budget:None ~scaled:true (fun _ -> ops.fork_exit ());
        ]
  in
  let bench =
    { Lmbench.bench_name = "kernel-zero-alloc"; iterations = 0; prepare_pages = pages;
      op = ignore }
  in
  ignore
    (Sim.Machine.run_fresh ~frames:32768 ~cma_frames:2048 ~setting
       { (Lmbench.spec_of bench) with Sim.Machine.body })

(* The journal's per-event record path. The segment is large enough that no
   seal (and thus no I/O or framing) falls inside the measured window. *)
let with_scratch f =
  let path = Filename.temp_file "erebor-gate" ".ejrn" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let journal_family ~pages:_ k =
  with_scratch @@ fun path ->
  let w = J.Writer.create ~segment_bytes:(1 lsl 22) ~path () in
  let s = J.Writer.stream w ~machine:"alloc" in
  let ts = ref 0 in
  k
    [ spec "journal/zero-alloc" ~warm:1024 ~per:"event" 200_000 (fun _ ->
          incr ts;
          J.Writer.record w ~stream:s Obs.Trace.Page_fault ~ts:!ts ~arg:(!ts land 4095 * 64)) ];
  J.Writer.close w ~now:!ts

let zero_alloc_table : family list =
  [ emit_family; drbg_family ]
  @ List.map privops_family
      (("native", Sim.Config.Native, None)
      :: List.map
           (fun b -> (Erebor.Isolation.kind_name b, Sim.Config.Erebor_full, Some b))
           Erebor.Isolation.[ Pks; Write_protect; Tme_mk ])
  @ List.map step_family Sim.Config.all
  @ List.map kernel_family [ Sim.Config.Native; Sim.Config.Erebor_full ]
  @ [ journal_family ]

(* The minor words [f 0] .. [f (n - 1)] allocate. [Gc.minor_words] boxes
   its own result, so two back-to-back calls differ by a small constant;
   calibrate it out so a row can demand an exact zero. *)
let minor_words ~n f =
  let probe =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let m0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  Gc.minor_words () -. m0 -. probe

(* Each spec of [family] on a [pages]-page set-up, with the words its
   measured calls allocate once warm. *)
let measure (family : family) ~pages =
  let found = ref [] in
  family ~pages (fun specs ->
      List.iter
        (fun s ->
          for i = 1 to s.warm do s.body i done;
          found := (s, minor_words ~n:s.calls s.body) :: !found)
        specs);
  List.rev !found

(* [words] minor words across [n] measured [per]s, against [budget] words
   per [per]. *)
let alloc_row name ~per ~budget ~n words =
  let each = words /. float_of_int n in
  chk
    ~old_value:(Printf.sprintf "<= %.1f words/%s" budget per)
    ~new_value:(Printf.sprintf "%.4f words/%s" each per)
    name (each <= budget)
    (Printf.sprintf "%.0f minor words across %d steady-state %ss" words n per)

let zero_alloc_checks () =
  List.concat_map
    (fun family ->
      let small = measure family ~pages:small_pages in
      let large =
        if List.exists (fun (s, _) -> s.scaled) small then
          List.map (fun (s, w) -> (s.name, w)) (measure family ~pages:large_pages)
        else []
      in
      List.concat_map
        (fun (s, words) ->
          let call =
            match s.budget with
            | Some budget -> [ alloc_row s.name ~per:s.per ~budget ~n:s.calls words ]
            | None -> []
          in
          let page =
            if s.scaled then
              [ alloc_row (s.name ^ "/page") ~per:"page" ~budget:0.0
                  ~n:((large_pages - small_pages) * s.calls)
                  (List.assoc s.name large -. words) ]
            else []
          in
          call @ page)
        small)
    zero_alloc_table

(* ------------------------------------------------------------------ *)
(* Flight recorder: lossless and diffable                              *)
(* ------------------------------------------------------------------ *)

(* One drugbank session under full Erebor journaled to [path]; [extra]
   cycles of compute appended to the body seed a user-phase slowdown.
   Returns the live counter view. *)
let record_drugbank ~path ~extra =
  let spec = drugbank () in
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

let journal_checks ~baseline =
  with_scratch @@ fun rec_path ->
  with_scratch @@ fun slow_path ->
  let live = record_drugbank ~path:rec_path ~extra:0 in
  let replay = replay_check ~path:rec_path live in
  ignore (record_drugbank ~path:slow_path ~extra:(seeded_extra ~rec_path));
  let from_journal =
    match check_journal_file ~journal:rec_path ~path:baseline () with
    | Result.Error e -> [ chk "journal/from-journal" false e ]
    | Result.Ok verdict -> verdict
  in
  (replay :: diff_checks ~rec_path ~slow_path) @ from_journal

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
        match read_baseline baseline with
        | Result.Ok json ->
            check_json ~fig9:(if smoke then None else Some (Eval.fig9 ?jobs ())) json
        | Result.Error e -> [ chk "baseline" false e ] );
    ( "law",
      fun ~smoke:_ ->
        transparent (fun obs -> List.iter (fun (_, attach) -> attach obs) sinks)
        @ zero_alloc_checks () );
    ("journal", fun ~smoke:_ -> journal_checks ~baseline);
    ("density", density_checks ~jobs);
    ("attrib", attrib_checks ~jobs);
  ]
