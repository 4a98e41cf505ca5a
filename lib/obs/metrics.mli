(** Metrics registry: renders counter / histogram / attribution sinks as
    Prometheus text exposition or JSON.

    Purely a formatter over sinks owned elsewhere — register the sinks a
    run attached, then render after the run. Metric families:
    [<ns>_events_total{source,kind}], [<ns>_event_arg_total{source,kind}],
    [<ns>_cycles_attributed_total{source,domain,phase}] and the
    [<ns>_event_arg{source,kind}] histogram (cumulative [le] buckets on the
    log2 boundaries). A {!Window} source adds window-scoped gauges —
    [<ns>_window_events{source,kind}], [<ns>_window_rate{source,kind}] and
    [<ns>_window_arg{source,kind,quantile}] — that describe the sliding
    window rather than the whole run. A {!Sketch} source adds the fleet
    families [<ns>_sketch_latency_cycles{source}] (a histogram re-bucketed
    onto the log2 exemplar bands, with [# UNIT] metadata and, when an
    {!Exemplar} reservoir is registered alongside, an OpenMetrics exemplar
    [# {trace_id=...,machine=...,offset=...} latency ts] on each bucket
    line) and [<ns>_sketch_quantile_cycles{source,quantile}] (a summary).
    The exposition terminates with the OpenMetrics [# EOF] marker. *)

type t

val create : ?namespace:string -> unit -> t
(** [namespace] prefixes every metric family name; default ["erebor"]. *)

val add :
  t ->
  label:string ->
  ?counter:Counter.t ->
  ?histogram:Histogram.t ->
  ?attrib:Attrib.t ->
  ?window:Window.t ->
  ?sketch:Sketch.t ->
  ?exemplar:Exemplar.t ->
  unit ->
  unit
(** Register one source (rendered with label [source="label"]).
    [sketch] / [exemplar] are typically a fleet aggregator's
    {!Agg.latency_sketch} and {!Agg.exemplars}. *)

val escape_label : string -> string
(** Prometheus label-value escaping (backslash, quote, newline). *)

val to_prometheus : t -> string
(** Text exposition format 0.0.4; zero-count series are omitted. *)

val to_json : t -> string
