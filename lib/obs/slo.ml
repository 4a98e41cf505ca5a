(* Declarative service-level objectives over a sliding window, with error
   budgets and Google-SRE-style multi-window burn-rate alerts.

   Burn rate is "how fast the error budget is being consumed": 1.0 means
   exactly on budget, N means the budget would be exhausted N times over if
   the current window's behaviour held. An alert fires only when BOTH a
   fast window (recent buckets — catches the incident quickly) and a slow
   window (long horizon — filters one-off blips) burn above the firing
   threshold, and it clears with hysteresis: both burns must stay below the
   clear threshold for [clear_evals] consecutive evaluations.

   Evaluation reads the window and emits transitions; it never advances the
   virtual clock. Transitions are emitted as [Trace.Slo_alert] events
   (arg = objective index lsl 1 lor fired) and recorded on the emitter's
   audit rail under category "slo" when a chain is attached. *)

type condition =
  | Latency_above of { kind : Trace.kind; threshold : int }
  | Ratio of { bad : Trace.kind; total : Trace.kind }
  | Rate_above of { kind : Trace.kind; per_second : float }

type objective = {
  name : string;
  tenant : string option;
  condition : condition;
  budget : float;
}

let objective ?tenant ~name ~condition ~budget () =
  if budget <= 0.0 then invalid_arg "Slo.objective: budget must be positive";
  { name; tenant; condition; budget }

type status = {
  objective : objective;
  fast_burn : float;
  slow_burn : float;
  firing : bool;
  since : int;
}

type t = {
  window : Window.t;
  emit : Emitter.t option;
  fast : int;
  slow : int;
  objectives : objective array;
  firing : bool array;
  since : int array;
  clear_streak : int array;
  fast_burns : float array;
  slow_burns : float array;
  mutable transitions : (int * objective * bool) list; (* reversed *)
  mutable evals : int;
}

(* Fire at 10x budget burn; clear after 3 evaluations below 1x. *)
let fire_burn = 10.0
let clear_burn = 1.0
let clear_evals = 3

let create ?emit ?(fast_windows = 5) ?(slow_windows = 60) ~window
    ~objectives () =
  if fast_windows <= 0 || slow_windows < fast_windows then
    invalid_arg "Slo.create: need 0 < fast_windows <= slow_windows";
  let objectives = Array.of_list objectives in
  let n = Array.length objectives in
  {
    window;
    emit;
    fast = fast_windows;
    slow = slow_windows;
    objectives;
    firing = Array.make n false;
    since = Array.make n 0;
    clear_streak = Array.make n 0;
    fast_burns = Array.make n 0.0;
    slow_burns = Array.make n 0.0;
    transitions = [];
    evals = 0;
  }

let window t = t.window

(* Burn over [windows] buckets: bad fraction / budget for the sample-based
   conditions, observed rate / (ceiling * budget) for the rate ceiling. A
   window with no traffic burns nothing. *)
let burn t o ~windows ~now =
  match o.condition with
  | Latency_above { kind; threshold } ->
      let total = Window.count t.window ~windows kind in
      if total = 0 then 0.0
      else
        let bad = Window.over t.window ~windows kind ~threshold in
        float_of_int bad /. float_of_int total /. o.budget
  | Ratio { bad; total } ->
      let n = Window.count t.window ~windows total in
      if n = 0 then 0.0
      else
        let b = Window.count t.window ~windows bad in
        float_of_int b /. float_of_int n /. o.budget
  | Rate_above { kind; per_second } ->
      Window.rate t.window ~windows ~now kind /. per_second /. o.budget

let transition t i ~now fired =
  let o = t.objectives.(i) in
  t.firing.(i) <- fired;
  t.since.(i) <- now;
  t.clear_streak.(i) <- 0;
  t.transitions <- (now, o, fired) :: t.transitions;
  match t.emit with
  | None -> ()
  | Some e ->
      Emitter.emit e Trace.Slo_alert ~ts:now
        ~arg:((i lsl 1) lor (if fired then 1 else 0));
      Emitter.audit_event e ~ts:now ~category:"slo"
        ~verdict:(if fired then Audit.Deny else Audit.Info)
        (fun () ->
          Printf.sprintf "%s%s: burn-rate alert %s (fast %.2f, slow %.2f)"
            (match o.tenant with Some tn -> tn ^ "/" | None -> "")
            o.name
            (if fired then "FIRING" else "cleared")
            t.fast_burns.(i) t.slow_burns.(i))

let evaluate t ~now =
  Window.advance t.window ~now;
  t.evals <- t.evals + 1;
  Array.iteri
    (fun i o ->
      let fb = burn t o ~windows:t.fast ~now
      and sb = burn t o ~windows:t.slow ~now in
      t.fast_burns.(i) <- fb;
      t.slow_burns.(i) <- sb;
      if not t.firing.(i) then begin
        if fb >= fire_burn && sb >= fire_burn then
          transition t i ~now true
      end
      else if fb < clear_burn && sb < clear_burn then begin
        t.clear_streak.(i) <- t.clear_streak.(i) + 1;
        if t.clear_streak.(i) >= clear_evals then transition t i ~now false
      end
      else t.clear_streak.(i) <- 0)
    t.objectives

let statuses t =
  Array.to_list
    (Array.mapi
       (fun i o ->
         {
           objective = o;
           fast_burn = t.fast_burns.(i);
           slow_burn = t.slow_burns.(i);
           firing = t.firing.(i);
           since = t.since.(i);
         })
       t.objectives)

let firing t = List.filter (fun (s : status) -> s.firing) (statuses t)

let transitions t = List.rev t.transitions

let fired_ever t ~name =
  List.exists (fun (_, o, fired) -> fired && o.name = name) t.transitions

let evals t = t.evals

let condition_json = function
  | Latency_above { kind; threshold } ->
      Printf.sprintf
        "{\"type\":\"latency_above\",\"kind\":\"%s\",\"threshold\":%d}"
        (Trace.name kind) threshold
  | Ratio { bad; total } ->
      Printf.sprintf "{\"type\":\"ratio\",\"bad\":\"%s\",\"total\":\"%s\"}"
        (Trace.name bad) (Trace.name total)
  | Rate_above { kind; per_second } ->
      Printf.sprintf
        "{\"type\":\"rate_above\",\"kind\":\"%s\",\"per_second\":%.2f}"
        (Trace.name kind) per_second

let to_json t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "{\"fast_windows\":%d,\"slow_windows\":%d,\"fire_burn\":%.2f,\"clear_burn\":%.2f,\"evals\":%d,\"objectives\":["
    t.fast t.slow fire_burn clear_burn t.evals;
  Array.iteri
    (fun i o ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"name\":\"%s\",%s\"condition\":%s,\"budget\":%.4f,\"fast_burn\":%.3f,\"slow_burn\":%.3f,\"budget_left\":%.3f,\"firing\":%b,\"since\":%d}"
        (Audit.escape_json o.name)
        (match o.tenant with
        | Some tn -> Printf.sprintf "\"tenant\":\"%s\"," (Audit.escape_json tn)
        | None -> "")
        (condition_json o.condition)
        o.budget t.fast_burns.(i) t.slow_burns.(i)
        (Float.max 0.0 (1.0 -. t.slow_burns.(i)))
        t.firing.(i) t.since.(i))
    t.objectives;
  Printf.bprintf buf "],\"transitions\":[";
  List.iteri
    (fun i (ts, o, fired) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "{\"ts\":%d,\"objective\":\"%s\",\"fired\":%b}" ts
        (Audit.escape_json o.name)
        fired)
    (transitions t);
  Buffer.add_string buf "]}";
  Buffer.contents buf
