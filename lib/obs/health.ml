(* Per-sandbox / per-tenant health state machine driven by watchdog rules.

   Each registered subject is scored at every [check]: it is "bad" when a
   watchdog trips — EMC stall (a request in flight but no monitor call for
   [stall_cycles]), request deadline overrun (in flight past
   [deadline_cycles], or a completed request that exceeded the deadline),
   or an audit-denial spike ([denial_spike]+ denials since the last check).
   Demotion and recovery are both hysteretic: [degrade_after] consecutive
   bad checks take Healthy -> Degraded, [unhealthy_after] more take
   Degraded -> Unhealthy, and [recover_after] consecutive clean checks step
   one level back up.

   Checks never advance the virtual clock. Every transition emits a
   [Trace.Health_transition] event (arg = subject id lsl 2 lor state index)
   and an audit record under category "health" (Deny on demotion, Info on
   recovery) when the emitter has a chain attached. *)

type state = Healthy | Degraded | Unhealthy

let state_index = function Healthy -> 0 | Degraded -> 1 | Unhealthy -> 2
let state_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Unhealthy -> "unhealthy"

type rules = {
  stall_cycles : int;
  deadline_cycles : int;
  denial_spike : int;
  degrade_after : int;
  unhealthy_after : int;
  recover_after : int;
}

let default_rules =
  {
    stall_cycles = 200_000_000;      (* ~95 virtual ms of EMC silence *)
    deadline_cycles = 2_100_000_000; (* ~1 virtual s per request *)
    denial_spike = 3;
    degrade_after = 2;
    unhealthy_after = 3;
    recover_after = 4;
  }

type subject = {
  sname : string;
  id : int;
  mutable state : state;
  mutable last_emc : int;
  mutable busy : bool;
  mutable req_start : int;
  mutable denials : int;    (* since the last check *)
  mutable overruns : int;   (* completed-overrun count since the last check *)
  mutable requests : int;
  mutable total_overruns : int;
  mutable total_denials : int;
  mutable bad_streak : int;
  mutable good_streak : int;
}

type t = {
  emit : Emitter.t option;
  rules : rules;
  mutable subjects : subject list; (* reversed registration order *)
  mutable transitions : (int * subject * state) list; (* reversed *)
  mutable next_id : int;
}

let create ?emit ?(rules = default_rules) () =
  { emit; rules; subjects = []; transitions = []; next_id = 0 }

let register t ~name ~now =
  let s =
    {
      sname = name;
      id = t.next_id;
      state = Healthy;
      last_emc = now;
      busy = false;
      req_start = 0;
      denials = 0;
      overruns = 0;
      requests = 0;
      total_overruns = 0;
      total_denials = 0;
      bad_streak = 0;
      good_streak = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.subjects <- s :: t.subjects;
  s

let subjects t = List.rev t.subjects
let name s = s.sname
let id s = s.id
let state s = s.state
let requests s = s.requests
let total_overruns s = s.total_overruns
let total_denials s = s.total_denials

let note_emc s ~now = s.last_emc <- now

let note_denial s =
  s.denials <- s.denials + 1;
  s.total_denials <- s.total_denials + 1

let begin_request s ~now =
  s.busy <- true;
  s.req_start <- now;
  s.requests <- s.requests + 1

let end_request t s ~now ~latency =
  ignore now;
  s.busy <- false;
  if latency > t.rules.deadline_cycles then begin
    s.overruns <- s.overruns + 1;
    s.total_overruns <- s.total_overruns + 1
  end

let transition t s ~now st =
  let demotion = state_index st > state_index s.state in
  let bad = s.bad_streak and good = s.good_streak in
  s.state <- st;
  s.bad_streak <- 0;
  s.good_streak <- 0;
  t.transitions <- (now, s, st) :: t.transitions;
  match t.emit with
  | None -> ()
  | Some e ->
      Emitter.emit e Trace.Health_transition ~ts:now
        ~arg:((s.id lsl 2) lor state_index st);
      Emitter.audit_event e ~ts:now ~category:"health"
        ~verdict:(if demotion then Audit.Deny else Audit.Info)
        (fun () ->
          Printf.sprintf "%s -> %s (bad=%d good=%d overruns=%d denials=%d)"
            s.sname (state_name st) bad good s.total_overruns s.total_denials)

let check t ~now =
  List.iter
    (fun s ->
      let stalled = s.busy && now - s.last_emc > t.rules.stall_cycles in
      let overdue = s.busy && now - s.req_start > t.rules.deadline_cycles in
      let spike = s.denials >= t.rules.denial_spike in
      let bad = stalled || overdue || spike || s.overruns > 0 in
      s.denials <- 0;
      s.overruns <- 0;
      if bad then begin
        s.bad_streak <- s.bad_streak + 1;
        s.good_streak <- 0
      end
      else begin
        s.good_streak <- s.good_streak + 1;
        s.bad_streak <- 0
      end;
      match s.state with
      | Healthy when s.bad_streak >= t.rules.degrade_after ->
          transition t s ~now Degraded
      | Degraded when s.bad_streak >= t.rules.unhealthy_after ->
          transition t s ~now Unhealthy
      | Degraded when s.good_streak >= t.rules.recover_after ->
          transition t s ~now Healthy
      | Unhealthy when s.good_streak >= t.rules.recover_after ->
          transition t s ~now Degraded
      | _ -> ())
    t.subjects

let transitions t = List.rev t.transitions

let transitions_of t s =
  List.filter_map
    (fun (ts, s', st) -> if s' == s then Some (ts, st) else None)
    (transitions t)

(* Bus adapter: route a machine emitter's events to one subject, so a
   single-machine run (erebor_sim run --dash) gets a watchdog without
   per-tenant plumbing. Req_begin/Req_end args carry a packed trace ctx,
   not a latency, so latency is derived from the request window bounds. *)
let watch t s emitter =
  Emitter.attach emitter (fun kind ~ts ~arg ->
      ignore arg;
      match kind with
      | Trace.Emc_entry -> note_emc s ~now:ts
      | Trace.Mmu_deny -> note_denial s
      | Trace.Req_begin -> begin_request s ~now:ts
      | Trace.Req_end -> end_request t s ~now:ts ~latency:(ts - s.req_start)
      | _ -> ())

let to_json t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"subjects\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"name\":\"%s\",\"id\":%d,\"state\":\"%s\",\"requests\":%d,\"overruns\":%d,\"denials\":%d}"
        (Audit.escape_json s.sname) s.id (state_name s.state) s.requests
        s.total_overruns s.total_denials)
    (subjects t);
  Buffer.add_string buf "],\"transitions\":[";
  List.iteri
    (fun i (ts, s, st) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "{\"ts\":%d,\"subject\":\"%s\",\"state\":\"%s\"}" ts
        (Audit.escape_json s.sname) (state_name st))
    (transitions t);
  Buffer.add_string buf "]}";
  Buffer.contents buf
