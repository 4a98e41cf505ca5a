(* Live ASCII dashboard driver. Attached as a sink, it watches event
   timestamps and — every [refresh_cycles] of VIRTUAL time — evaluates the
   SLOs, runs the health watchdogs and repaints a compact panel to [out].
   The cadence is therefore keyed to the simulated clock (a run that covers
   more virtual time repaints more often), host I/O happens outside the
   simulation, and nothing here ever advances the clock.

   [snapshot_json] renders the full window/SLO/health state as one JSON
   document; callers register it as an Emitter finalizer so the final
   snapshot survives abnormal exits the same way audit chains do. *)

type t = {
  window : Window.t;
  slo : Slo.t option;
  health : Health.t option;
  refresh : int;
  out : out_channel option;
  label : string;
  mutable next_refresh : int;
  mutable refreshes : int;
  mutable last_now : int;
}

let create ?(label = "run") ?out ?slo ?health ~refresh_cycles ~window () =
  if refresh_cycles <= 0 then
    invalid_arg "Dash.create: refresh_cycles must be positive";
  {
    window;
    slo;
    health;
    refresh = refresh_cycles;
    out;
    label;
    next_refresh = refresh_cycles;
    refreshes = 0;
    last_now = 0;
  }

let refreshes t = t.refreshes

let virtual_seconds now = float_of_int now /. (Window.ghz *. 1e9)

let panel_kinds =
  [
    Trace.Emc_entry;
    Trace.Syscall;
    Trace.Page_fault;
    Trace.Ve_exit;
    Trace.Timer_irq;
    Trace.Context_switch;
    Trace.Mmu_deny;
    Trace.Req_end;
  ]

let render t ~now =
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "-- %s @ %.3fs virtual (refresh %d) --------------------\n" t.label
    (virtual_seconds now) t.refreshes;
  Buffer.add_string buf "  rates/s:";
  List.iter
    (fun kind ->
      if Window.count t.window kind > 0 then
        Printf.bprintf buf " %s %.1fk" (Trace.name kind)
          (Window.rate t.window ~now kind /. 1000.0))
    panel_kinds;
  Buffer.add_char buf '\n';
  List.iter
    (fun kind ->
      if Window.hist_tracked t.window kind && Window.count t.window kind > 0
      then
        Printf.bprintf buf "  %s p50/p95/p99: %d/%d/%d cy\n" (Trace.name kind)
          (Window.percentile t.window kind ~p:0.50)
          (Window.percentile t.window kind ~p:0.95)
          (Window.percentile t.window kind ~p:0.99))
    panel_kinds;
  (match t.slo with
  | None -> ()
  | Some slo ->
      List.iter
        (fun (s : Slo.status) ->
          Printf.bprintf buf "  slo %-12s burn fast %6.2f slow %6.2f  [%s]\n"
            s.Slo.objective.Slo.name s.Slo.fast_burn s.Slo.slow_burn
            (if s.Slo.firing then "FIRING" else "ok"))
        (Slo.statuses slo));
  (match t.health with
  | None -> ()
  | Some h ->
      List.iter
        (fun s ->
          Printf.bprintf buf
            "  health %-10s %-9s (%d reqs, %d overruns, %d denials)\n"
            (Health.name s)
            (Health.state_name (Health.state s))
            (Health.requests s)
            (Health.total_overruns s)
            (Health.total_denials s))
        (Health.subjects h));
  Buffer.contents buf

(* One evaluation tick: bump the deadline FIRST so the Slo_alert /
   Health_transition events an evaluation emits (which re-enter this sink
   when it shares the emitter) cannot recurse. *)
let tick t ~now =
  t.next_refresh <- now + t.refresh;
  t.refreshes <- t.refreshes + 1;
  t.last_now <- now;
  (match t.slo with Some s -> Slo.evaluate s ~now | None -> ());
  (match t.health with Some h -> Health.check h ~now | None -> ());
  match t.out with
  | None -> ()
  | Some oc ->
      output_string oc (render t ~now);
      flush oc

let sink t kind ~ts ~arg =
  ignore kind;
  ignore arg;
  if ts >= t.next_refresh then tick t ~now:ts;
  if ts > t.last_now then t.last_now <- ts

let attach emitter t =
  Emitter.attach emitter (sink t);
  t

let snapshot_json t ~now =
  let now = max now t.last_now in
  let buf = Buffer.create 2048 in
  Printf.bprintf buf
    "{\"schema\":\"erebor-dash/1\",\"label\":\"%s\",\"ts\":%d,\"virtual_s\":%.6f,\"refreshes\":%d,\"window\":%s"
    (Audit.escape_json t.label)
    now (virtual_seconds now) t.refreshes
    (Window.to_json t.window ~now ());
  (match t.slo with
  | None -> ()
  | Some s -> Printf.bprintf buf ",\"slo\":%s" (Slo.to_json s));
  (match t.health with
  | None -> ()
  | Some h -> Printf.bprintf buf ",\"health\":%s" (Health.to_json h));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
