(** Offline critical-path analysis over journaled request windows.

    Replays a journal's [Req_begin]/[Req_end] marker events, paired by their
    argument (the session id), and the span stream between them,
    reconstructing each request's window and decomposing its latency into:

    - {e service}: cycles covered by top-level spans inside the window —
      someone was actively working on behalf of the machine;
    - {e queueing}: the uncovered gaps — the request existed but nothing
      was running a span (waiting for the channel, scheduler, ...);
    - a per-(domain x phase) {e blame} vector: self-cycles of every span
      that ran inside the window (inclusive minus nested children), i.e.
      where the service time actually went. The blame vector sorted by
      cycles is the request's critical path.

    One {!Journal.replay} pass, with each stream's span stack and open
    windows held by that stream's sink; nothing is materialized beyond
    open windows. *)

type blame = { bdomain : Trace.domain; bphase : Trace.phase; bcycles : int }

type request = {
  id : int;              (** The markers' argument: the session id. *)
  rt0 : int;
  rt1 : int;
  total : int;           (** [rt1 - rt0]. *)
  service : int;
  queueing : int;
  path : blame list;     (** Critical path: blame entries, descending. *)
}

type report = {
  requests : request list;   (** Completed windows, slowest first. *)
  n : int;
  lat_p50 : int;
  lat_p95 : int;
  lat_p99 : int;             (** Exact (rank-order) latency percentiles. *)
  total_service : int;
  total_queueing : int;
  phase_totals : (Trace.domain * Trace.phase * int) list;
      (** Blame aggregated over all requests, {!Trace.phase_index} order,
          nonzero only. *)
}

val analyze :
  ?top:int -> path:string -> unit -> (report * Journal.info, string) result
(** [top] (default 10) bounds [requests] to the N slowest; percentiles and
    totals always cover every completed window. *)

val render : report -> string
(** Text report: latency summary, queueing-vs-service split, aggregate
    blame table and the per-request critical paths of the slowest
    windows. *)
