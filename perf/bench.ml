(* One workload run: set-up probes, an untimed warm-up pass, then passes
   until the time budget is spent. Every item is a closed loop of one
   client: the next item starts when the previous one has finished. *)

type config = {
  workload : Items.workload;
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;  (** One pass, correctness only. *)
  out : string;
}

type item_run = { key : string; ns : int }

type pass = { pass_ns : int; minor : float; major : float; runs : item_run list }

type counts = {
  mutable attempted : int;
  mutable failed : int;
  mutable shown : int;
  mutable speed : int list;  (** {!speed_loop} times, ns. *)
  mutable last_speed : int;
}

let new_counts () = { attempted = 0; failed = 0; shown = 0; speed = []; last_speed = 0 }

let log fmt = Printf.eprintf (fmt ^^ "%!")

(* {2 Host speed}

   On a shared host the simulator's speed drifts by tens of percent for
   tens of seconds at a time, longer than one run, and a plain integer
   loop slows with it. Each run therefore times this loop between items,
   at most every [speed_every_ns], and scales its wall-time metrics by
   [speed_ref_ns] over the median loop time: they read as host time on a
   host where the loop takes [speed_ref_ns]. The loop is the benchmark's
   own code, so no change to the simulator moves it. *)
let speed_ref_ns = 1.7e6
let speed_every_ns = 100_000_000

let speed_loop () =
  let x = ref 1 in
  for i = 1 to 1_000_000 do
    x := ((!x * 1103515245) + i) land 0xFFFFFFF
  done;
  Sys.opaque_identity !x

(* Times one loop and returns its duration, so callers can leave it out of
   the time they measure. *)
let sample_speed counts =
  let t0 = Tracer.now () in
  ignore (speed_loop ());
  let t1 = Tracer.now () in
  counts.speed <- (t1 - t0) :: counts.speed;
  counts.last_speed <- t1;
  t1 - t0

let speed_loop_ns counts =
  match counts.speed with
  | [] -> speed_ref_ns
  | s -> Stats.median (List.map float_of_int s)

let speed_factor counts = speed_ref_ns /. speed_loop_ns counts

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let hooks_of tracer =
  {
    Items.instrument = Tracer.attach tracer;
    span =
      (fun which f ->
        Tracer.span tracer
          (match which with `Create -> Tracer.sim_create | `Run -> Tracer.sim_run)
          f);
  }

(* Runs one pass in its seeded order, checking every item against the
   reference; with a tracer, per-(item, slot) self times go to [on_trace]. *)
let run_pass ?tracer ?(on_trace = fun _ _ -> ()) cfg counts ~pass =
  let hooks = Option.map hooks_of tracer in
  let tmp = cfg.out in
  let reference = Lazy.force Reference.committed in
  let order = Items.permute ~seed:cfg.seed ~pass cfg.workload.items in
  let g0 = Gc.quick_stat () in
  let t0 = Tracer.now () in
  let speed_ns = ref 0 in
  let runs =
    List.map
      (fun (item : Items.item) ->
        if Tracer.now () - counts.last_speed >= speed_every_ns then
          speed_ns := !speed_ns + sample_speed counts;
        Option.iter Tracer.start_item tracer;
        let i0 = Tracer.now () in
        let outcome =
          match Items.run ?hooks ~seed:cfg.seed ~tmp item with
          | o -> Ok o
          | exception e -> Error (Printexc.to_string e)
        in
        let i1 = Tracer.now () in
        Option.iter (fun t -> on_trace item.key (Tracer.end_item t)) tracer;
        let problem =
          match outcome with
          | Error e -> Some ("raised " ^ e)
          | Ok { problem = Some p; _ } -> Some p
          | Ok { fields; _ } -> Reference.check reference item.key fields
        in
        counts.attempted <- counts.attempted + 1;
        Option.iter
          (fun p ->
            counts.failed <- counts.failed + 1;
            if counts.shown < 10 then begin
              counts.shown <- counts.shown + 1;
              log "FAIL %s %s: %s\n" cfg.workload.name item.key p
            end)
          problem;
        { key = item.key; ns = i1 - i0 })
      order
  in
  let t1 = Tracer.now () in
  let g1 = Gc.quick_stat () in
  {
    pass_ns = t1 - t0 - !speed_ns;
    minor = g1.minor_words -. g0.minor_words;
    major = g1.major_words -. g0.major_words;
    runs;
  }

(* Passes numbered from [first] until [seconds] have elapsed, at least
   [min] of them. *)
let timed_passes ~min ~seconds ~first f =
  let t_end = Tracer.now () + int_of_float (seconds *. 1e9) in
  let rec go i acc =
    let acc = f ~pass:(first + i) :: acc in
    if i + 1 < min || Tracer.now () < t_end then go (i + 1) acc else List.rev acc
  in
  go 0 []

(* {2 Set-up probes} *)

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* A fresh process that runs the warm-up pass and exits: library init,
   first machine assembly and the decode-cache fill, timed from outside. *)
let probe cfg counts =
  let args =
    [| Sys.executable_name; "setup-probe"; "--workload"; cfg.workload.name;
       "--seed"; string_of_int cfg.seed; "--out"; cfg.out |]
  in
  ignore (sample_speed counts);
  let t0 = Tracer.now () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
  let status = waitpid pid in
  (float_of_int (Tracer.now () - t0) /. 1e9, status = Unix.WEXITED 0)

(* At least three probes, more while they stay short, so a cheap set-up
   still gets a steady median. *)
let setup_probes cfg counts =
  let rec go acc spent =
    let n = List.length acc in
    if n >= 3 && (spent >= 1.5 || n >= 15) then List.rev acc
    else
      let ((s, _) as p) = probe cfg counts in
      go (p :: acc) (spent +. s)
  in
  go [] 0.0

(* {2 Host memory} *)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        nan
        (String.split_on_char '\n' status)

(* {2 Metrics} *)

type metric = { mname : string; value : float; unit_ : string; spread : float }

let metric ?(spread = 0.0) mname unit_ value = { mname; value; unit_; spread }
let median_spread xs = (Stats.median xs, if List.length xs > 1 then Stats.rel_iqr xs else 0.0)

let item_ms r = float_of_int r.ns /. 1e6

(* Each item's median time over [passes], in ms, by key. The items of a
   workload differ in size, so the median item is taken over these: a
   median over all samples would sit on the edge between two item sizes. *)
let item_medians passes =
  let times = Hashtbl.create 16 in
  List.iter
    (fun p ->
      List.iter
        (fun r ->
          Hashtbl.replace times r.key
            (item_ms r :: Option.value ~default:[] (Hashtbl.find_opt times r.key)))
        p.runs)
    passes;
  Hashtbl.fold (fun key ts acc -> (key, Stats.median ts) :: acc) times []

(* Wall times are scaled by [speed] (see {!speed_factor}). *)
let end_to_end ~speed ~passes ~setup =
  let per_pass f = median_spread (List.map f passes) in
  let pass_s, pass_sp = per_pass (fun p -> float_of_int p.pass_ns /. 1e9) in
  let _, item_sp = per_pass (fun p -> Stats.median (List.map item_ms p.runs)) in
  let minor, minor_sp = per_pass (fun p -> p.minor /. 1e6) in
  let major, major_sp = per_pass (fun p -> p.major /. 1e6) in
  let setup_s, setup_sp = median_spread setup in
  let value name =
    match name with
    | "pass_s_p50" -> (speed *. pass_s, pass_sp)
    | "item_ms_p50" -> (speed *. Stats.median (List.map snd (item_medians passes)), item_sp)
    | "alloc_mwords_per_pass" -> (minor, minor_sp)
    | "major_mwords_per_pass" -> (major, major_sp)
    | "peak_rss_mb" -> (peak_rss_mb (), 0.0)
    | "setup_s" -> (speed *. setup_s, setup_sp)
    | n -> invalid_arg ("Bench.end_to_end: " ^ n)
  in
  List.map
    (fun (m : Metrics.e2e) ->
      let v, spread = value m.name in
      metric ~spread m.name m.unit_ v)
    Metrics.end_to_end

(* The tail is reported only when ten or more items lie beyond it. *)
let item_p90 ~speed passes =
  let items = List.concat_map (fun p -> List.map item_ms p.runs) passes in
  if Stats.tail_ok ~pct:90 (List.length items) then
    Some (metric "item_ms_p90" "ms" (speed *. Stats.p90 items))
  else None

(* Traced totals are per pass; [untraced] passes give the overhead base and
   the paper suite's per-call times. *)
let per_layer ~untraced ~traced ~tracer ~stamp_ns ~units ~speed_loop_ms =
  let n = float_of_int (List.length traced) in
  let pass_ns ps = Stats.median (List.map (fun p -> float_of_int p.pass_ns) ps) in
  let slots_of layer = List.filter (fun s -> Tracer.slot_name s = layer) (List.init Tracer.n_slots Fun.id) in
  let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l in
  let layer_ms l = sum (Tracer.net_self_ns tracer ~stamp_ns) (slots_of l) /. n /. 1e6 in
  let layer_spans l = sum (fun s -> float_of_int tracer.Tracer.spans.(s)) (slots_of l) /. n in
  let kinds ks = sum (fun k -> float_of_int tracer.Tracer.kinds.(Obs.Trace.index k)) ks /. n in
  let events = float_of_int (Array.fold_left ( + ) 0 tracer.Tracer.kinds) /. n in
  let hits, misses = Hw.Icode.cache_stats () in
  let medians = item_medians untraced in
  let eval_ms call = Option.value ~default:0.0 (List.assoc_opt ("eval." ^ call) medians) in
  let values =
    List.concat_map (fun l -> [ (l ^ ".self_ms", layer_ms l); (l ^ ".spans", layer_spans l) ]) Metrics.span_layers
    @ List.map (fun l -> (l ^ ".self_ms", layer_ms l)) Metrics.bench_layers
    @ [
        ("count.events", events);
        ("count.sim_gcycles", float_of_int tracer.Tracer.cycles /. n /. 1e9);
        ("count.channel_bytes", float_of_int tracer.Tracer.channel_bytes /. n);
      ]
    @ List.map (fun (name, ks) -> (name, kinds ks)) Metrics.counted_kinds
    @ [
        ("sim.host_ns_per_event", if events > 0.0 then pass_ns untraced /. events else 0.0);
        ( "hw.icode.hit_ratio",
          if hits + misses > 0 then float_of_int hits /. float_of_int (hits + misses) else 0.0 );
      ]
    @ List.concat_map
        (fun (u : Units.row) -> [ ("unit." ^ u.name ^ ".ns", u.ns); ("unit." ^ u.name ^ ".words", u.words) ])
        units
    @ List.map (fun c -> ("eval." ^ c ^ "_ms", eval_ms c)) Metrics.eval_calls
    @ [
        ("trace.overhead_pct", 100.0 *. ((pass_ns traced /. pass_ns untraced) -. 1.0));
        ("trace.stamp_ns", stamp_ns);
        ("host.speed_loop_ms", speed_loop_ms);
      ]
  in
  List.map (fun (name, unit_) -> metric name unit_ (List.assoc name values)) Metrics.per_layer

(* {2 Output} *)

let metrics_json ?(spread = false) ms =
  Reference.obj
    (List.map
       (fun m ->
         ( m.mname,
           Reference.obj
             ([ ("value", Reference.num m.value); ("unit", Reference.quote m.unit_) ]
             @ if spread then [ ("spread", Reference.num m.spread) ] else []) ))
       ms)

let write_file path text = Out_channel.with_open_text path (fun oc -> output_string oc text)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (** The metrics the run is judged on. *)
  extra : metric list;    (** Reported, never judged. *)
  passes : int;
  items : int;
}

let detail_json cfg r =
  Reference.obj ~sep:",\n  "
    [
      ("workload", Reference.quote cfg.workload.name);
      ("seed", string_of_int cfg.seed);
      ("seconds", Reference.num cfg.seconds);
      ("traced", string_of_bool cfg.traced);
      ("correct", string_of_bool r.correct);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("passes", string_of_int r.passes);
      ("items", string_of_int r.items);
      ("metrics", metrics_json ~spread:true r.metrics);
      ("extra", metrics_json ~spread:true r.extra);
    ]
  ^ "\n"

(* The line the benchmark's caller parses: the last line of stdout. *)
let result_line r =
  Reference.obj
    [
      ("correct", string_of_bool r.correct);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("metrics", metrics_json r.metrics);
    ]

let print_human cfg r =
  let w = cfg.workload.name in
  List.iter
    (fun m -> Printf.printf "%s %s %.6g %s\n" w m.mname m.value m.unit_)
    (r.metrics @ r.extra);
  Printf.printf "%s samples passes=%d items=%d failed=%d\n%!" w r.passes r.items r.failed

let trace_json cfg ~stamp_ns traces =
  let item (pass, index, key, slots) =
    Reference.obj
      [
        ("pass", string_of_int pass);
        ("index", string_of_int index);
        ("key", Reference.quote key);
        ( "self_ms",
          Reference.obj
            (List.filter_map
               (fun s ->
                 if slots.(s) = 0 then None
                 else Some (Tracer.slot_name s, Reference.num (float_of_int slots.(s) /. 1e6)))
               (List.init Tracer.n_slots Fun.id)) );
      ]
  in
  Printf.sprintf "{\"workload\": %s, \"seed\": %d, \"stamp_ns\": %s, \"items\": [\n%s\n]}\n"
    (Reference.quote cfg.workload.name) cfg.seed (Reference.num stamp_ns)
    (String.concat ",\n" (List.map item traces))

(* {2 The run} *)

(* The body of a set-up probe process: one checked warm-up pass. *)
let warm_up_only cfg =
  mkdir_p cfg.out;
  let counts = new_counts () in
  ignore (run_pass cfg counts ~pass:0);
  counts.failed = 0

let run cfg =
  mkdir_p cfg.out;
  let counts = new_counts () in
  let probes =
    if cfg.smoke || cfg.traced then [] else setup_probes cfg counts
  in
  let probe_failures = List.length (List.filter (fun (_, ok) -> not ok) probes) in
  let untraced ~seconds ~min =
    timed_passes ~min ~seconds ~first:1 (fun ~pass -> run_pass cfg counts ~pass)
  in
  (* The untimed warm-up; the smoke cut's only pass. *)
  ignore (run_pass cfg counts ~pass:0);
  let passes, metrics, extra =
    if cfg.smoke then (1, [], [])
    else if not cfg.traced then begin
      let passes = untraced ~seconds:cfg.seconds ~min:5 in
      let speed = speed_factor counts in
      ( List.length passes,
        end_to_end ~speed ~passes ~setup:(List.map fst probes),
        Option.to_list (item_p90 ~speed passes) @ [ metric "speed_factor" "x" speed ] )
    end
    else begin
      let half = cfg.seconds /. 2.0 in
      let plain = untraced ~seconds:half ~min:2 in
      let stamp_ns = Tracer.calibrate_stamp_ns () in
      let tracer = Tracer.create () in
      let traces = ref [] in
      let traced =
        timed_passes ~min:2 ~seconds:half ~first:(1 + List.length plain) (fun ~pass ->
            let index = ref 0 in
            let on_trace key slots =
              traces := (pass, !index, key, slots) :: !traces;
              incr index
            in
            run_pass ~tracer ~on_trace cfg counts ~pass)
      in
      let units = Units.rows ~tmp:cfg.out () in
      write_file
        (Filename.concat cfg.out ("trace-" ^ cfg.workload.name ^ ".json"))
        (trace_json cfg ~stamp_ns (List.rev !traces));
      ( List.length plain + List.length traced,
        per_layer ~untraced:plain ~traced ~tracer ~stamp_ns ~units
          ~speed_loop_ms:(speed_loop_ns counts /. 1e6),
        [] )
    end
  in
  let failed = counts.failed + probe_failures in
  let r =
    {
      correct = failed = 0;
      attempted = counts.attempted + List.length probes;
      failed;
      metrics;
      extra;
      passes;
      items = counts.attempted;
    }
  in
  write_file
    (Filename.concat cfg.out
       (cfg.workload.name ^ (if cfg.traced then ".traced" else "") ^ ".json"))
    (detail_json cfg r);
  r
