(* Live-SLO bench driver (see slo_bench.mli).

   One Erebor_full machine hosts N sealed tenants served round-robin
   through the real monitored request paths ([Density.provision] and
   [Density.serve]). Each tenant gets its own sliding window and a latency
   SLO over it; one shared health watchdog tracks every tenant. Mid-run, ONE tenant is seeded with
   a degradation: its requests go silent — the virtual clock advances with
   no monitor calls — long past the EMC-stall and deadline watchdogs, then
   complete with a huge latency that lands in its window.

   The point of the exercise is attribution: the burn-rate alert and the
   health demotions must fire for the stalled tenant and ONLY for it, while
   its neighbours' objectives stay silent — and every transition must land
   on the telemetry emitter's tamper-evident audit chain. *)

(* Virtual-time telemetry geometry: 1M-cycle buckets, a 64-bucket ring;
   fast = 5 buckets, slow = 30 — the 5-min/1-hour pair scaled down to
   bench time. *)
let bucket_width = 1_000_000
let ring_buckets = 64
let fast_windows = 5
let slow_windows = 30

(* One stalled request: 8 slices of 750k silent cycles (6M total), with a
   watchdog check between slices — long past both rules below. *)
let stall_slices = 8
let stall_slice_cycles = 750_000

let watchdog_rules =
  {
    Obs.Health.stall_cycles = 1_000_000;
    deadline_cycles = 2_000_000;
    denial_spike = 3;
    degrade_after = 2;
    unhealthy_after = 3;
    recover_after = 4;
  }

(* Latency objective: requests over 1M cycles are "bad"; 1% error budget.
   Healthy requests complete in well under 1M cycles, a stalled one in 6M+. *)
let latency_threshold = 1_000_000
let latency_budget = 0.01

let audit_key = Crypto.Sha256.digest_string "slo bench audit key"

type tenant_outcome = {
  tname : string;
  stalled : bool;
  served : int;
  alert_fired : bool;
  final_state : Obs.Health.state;
  worst_state : Obs.Health.state;
  health_transitions : (int * Obs.Health.state) list;
}

type report = {
  outcomes : tenant_outcome list;
  evals : int;
  alert_events : int;
  health_events : int;
  audit_records : int;
  audit_intact : bool;
  failures : string list;
}

let worst a b =
  let rank = function
    | Obs.Health.Healthy -> 0
    | Obs.Health.Degraded -> 1
    | Obs.Health.Unhealthy -> 2
  in
  if rank b > rank a then b else a

let run ?(backend = Erebor.Isolation.Pks) ?(tenants = 4) ?(rounds = 40)
    ?(stall_tenant = 1) ?(stall_rounds = 4) () =
  if stall_tenant < 0 || stall_tenant >= tenants then
    invalid_arg "Slo_bench.run: stall_tenant out of range";
  let m =
    Sim.Machine.create ~backend ~frames:65536 ~cma_frames:16384
      ~setting:Sim.Config.Erebor_full ()
  in
  let mgr = Option.get (Sim.Machine.manager m) in
  let clock = Sim.Machine.clock m in
  let counters = Sim.Machine.counters m in
  let now () = Hw.Cycles.now clock in

  (* The telemetry emitter: carries alert/health transition events, counts
     them, and chains them into a tamper-evident audit log. It is distinct
     from the machine's emitter on purpose — telemetry output must never
     feed back into the windows it is computed from. *)
  let tel = Obs.Emitter.create () in
  let tel_counter = Obs.Counter.attach tel (Obs.Counter.create ()) in
  let chain = Obs.Audit.create ~key:audit_key in
  Obs.Emitter.set_audit tel (Some chain);

  let health = Obs.Health.create ~emit:tel ~rules:watchdog_rules () in
  let tenant_setup =
    Array.init tenants (fun i ->
        let t = Density.provision mgr i in
        let name = Erebor.Sandbox.name t.Density.sb in
        let window =
          Obs.Window.create
            ~hist_kinds:[ Obs.Trace.Req_end ]
            ~width:bucket_width ~buckets:ring_buckets ()
        in
        let slo =
          Obs.Slo.create ~emit:tel ~fast_windows ~slow_windows ~window
            ~objectives:
              [
                Obs.Slo.objective ~tenant:name
                  ~name:(name ^ "/latency")
                  ~condition:
                    (Obs.Slo.Latency_above
                       { kind = Obs.Trace.Req_end; threshold = latency_threshold })
                  ~budget:latency_budget ();
              ]
            ()
        in
        let subject = Obs.Health.register health ~name ~now:(now ()) in
        (t, window, slo, subject))
  in

  (* The steady evaluation tick: every tenant's SLO plus the shared
     watchdogs, at the current virtual time. Pure reads — the clock never
     moves here. *)
  let evals = ref 0 in
  let tick () =
    incr evals;
    let t = now () in
    Array.iter (fun (_, _, slo, _) -> Obs.Slo.evaluate slo ~now:t) tenant_setup;
    Obs.Health.check health ~now:t
  in

  let served = Array.make tenants 0 in
  let stall_from = rounds / 2 in
  let stall_until = min rounds (stall_from + stall_rounds) in

  for round = 0 to rounds - 1 do
    Array.iteri
      (fun i (t, window, _, subject) ->
        if Erebor.Sandbox.kill_reason t.Density.sb = None then begin
          let t0 = now () in
          let emc0 = Obs.Counter.count counters Obs.Trace.Emc_entry in
          let deny0 = Obs.Counter.count counters Obs.Trace.Mmu_deny in
          Obs.Health.begin_request subject ~now:t0;
          (* The seeded degradation: the victim tenant goes silent
             mid-request — virtual time passes, no monitor calls — with the
             watchdogs checking on their steady cadence throughout. *)
          if i = stall_tenant && round >= stall_from && round < stall_until
          then
            for _ = 1 to stall_slices do
              Hw.Cycles.advance clock stall_slice_cycles;
              tick ()
            done;
          Density.serve m t ~round ~index:i;
          let t1 = now () in
          (* Per-tenant attribution: the machine counter deltas over this
             request belong to this tenant — the driver serves one request
             at a time, so the deltas are exact. *)
          let emcs = Obs.Counter.count counters Obs.Trace.Emc_entry - emc0 in
          let denies = Obs.Counter.count counters Obs.Trace.Mmu_deny - deny0 in
          if emcs > 0 then Obs.Health.note_emc subject ~now:t1;
          for _ = 1 to denies do Obs.Health.note_denial subject done;
          Obs.Health.end_request health subject ~now:t1 ~latency:(t1 - t0);
          Obs.Window.record window Obs.Trace.Req_end ~ts:t1 ~arg:(t1 - t0);
          Obs.Window.record window Obs.Trace.Emc_entry ~ts:t1 ~arg:emcs;
          served.(i) <- served.(i) + 1;
          tick ()
        end)
      tenant_setup
  done;

  Obs.Emitter.finalize tel ~now:(now ());
  let audit_text = Obs.Audit.to_string chain in
  let audit_intact =
    match Obs.Audit.verify_string ~key:audit_key audit_text with
    | Ok _ -> true
    | Error _ -> false
  in

  let outcomes =
    List.mapi
      (fun i (_, _, slo, subject) ->
        let name = Obs.Health.name subject in
        let transitions = Obs.Health.transitions_of health subject in
        {
          tname = name;
          stalled = i = stall_tenant;
          served = served.(i);
          alert_fired = Obs.Slo.fired_ever slo ~name:(name ^ "/latency");
          final_state = Obs.Health.state subject;
          worst_state =
            List.fold_left
              (fun acc (_, st) -> worst acc st)
              (Obs.Health.state subject) transitions;
          health_transitions = transitions;
        })
      (Array.to_list tenant_setup)
  in

  (* The whole run's verdict: the seeded tenant must alarm on every rail —
     burn-rate alert, Degraded and Unhealthy demotions — and nobody else
     may alarm on any. *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun o ->
      if o.stalled then begin
        if not o.alert_fired then
          fail "%s: seeded stall did not fire its burn-rate alert" o.tname;
        if o.worst_state <> Obs.Health.Unhealthy then
          fail "%s: seeded stall never reached Unhealthy (worst %s)" o.tname
            (Obs.Health.state_name o.worst_state);
        if
          not
            (List.exists
               (fun (_, st) -> st = Obs.Health.Degraded)
               o.health_transitions)
        then fail "%s: demotion skipped the Degraded step" o.tname
      end
      else begin
        if o.alert_fired then
          fail "%s: healthy tenant fired a burn-rate alert" o.tname;
        if o.worst_state <> Obs.Health.Healthy then
          fail "%s: healthy tenant left Healthy (worst %s)" o.tname
            (Obs.Health.state_name o.worst_state)
      end)
    outcomes;
  let alert_events = Obs.Counter.count tel_counter Obs.Trace.Slo_alert in
  let health_events =
    Obs.Counter.count tel_counter Obs.Trace.Health_transition
  in
  if alert_events = 0 then fail "no Slo_alert events reached the telemetry bus";
  if health_events = 0 then
    fail "no Health_transition events reached the telemetry bus";
  if not audit_intact then fail "telemetry audit chain failed verification";

  {
    outcomes;
    evals = !evals;
    alert_events;
    health_events;
    audit_records = Obs.Audit.length chain;
    audit_intact;
    failures = List.rev !failures;
  }

(* ------------------------------------------------------------------ *)
(* Clean-workload silence                                              *)
(* ------------------------------------------------------------------ *)

(* Machine-level objectives with generous ceilings — the same set [run
   --dash] attaches. The calibrated Fig. 9 programs peak under 90k EMC/s
   with round trips of a few thousand cycles, so a healthy run must never
   get near these. *)
let clean_objectives =
  [
    Obs.Slo.objective ~name:"emc-latency"
      ~condition:
        (Obs.Slo.Latency_above { kind = Obs.Trace.Emc_entry; threshold = 65536 })
      ~budget:0.02 ();
    Obs.Slo.objective ~name:"emc-rate"
      ~condition:
        (Obs.Slo.Rate_above
           { kind = Obs.Trace.Emc_entry; per_second = 500_000.0 })
      ~budget:1.0 ();
    Obs.Slo.objective ~name:"audit-denials"
      ~condition:
        (Obs.Slo.Ratio
           { bad = Obs.Trace.Mmu_deny; total = Obs.Trace.Emc_entry })
      ~budget:0.02 ();
  ]

let clean_fig9 ?jobs ?(smoke = false) () =
  let programs =
    if smoke then List.filter (fun (p, _) -> p = "drugbank") Eval.all_programs
    else Eval.all_programs
  in
  Sim.Runner.map_list ?jobs
    (fun (program, spec_fn) ->
      let obs = Obs.Emitter.create () in
      let window =
        Obs.Window.create ~width:10_500_000 ~buckets:120 ()
      in
      let slo =
        Obs.Slo.create ~emit:obs ~window ~objectives:clean_objectives ()
      in
      (* The dash sink drives periodic evaluation off the event stream,
         exactly as [run --dash] does (no panel output). *)
      let dash =
        Obs.Dash.attach obs
          (Obs.Dash.create ~label:program ~slo ~refresh_cycles:105_000_000
             ~window ())
      in
      let m = Sim.Machine.create ~obs ~window ~setting:Sim.Config.Erebor_full () in
      ignore (Sim.Machine.run m (spec_fn ()));
      Obs.Slo.evaluate slo ~now:(Hw.Cycles.now (Sim.Machine.clock m));
      ignore (Obs.Dash.refreshes dash);
      let fired =
        List.map
          (fun (s : Obs.Slo.status) -> s.Obs.Slo.objective.Obs.Slo.name)
          (Obs.Slo.firing slo)
        @ List.filter_map
            (fun (_, (o : Obs.Slo.objective), f) ->
              if f then Some o.Obs.Slo.name else None)
            (Obs.Slo.transitions slo)
      in
      (program, List.sort_uniq compare fired))
    programs
