(** Metrics registry: renders counter / histogram / attribution sinks as
    Prometheus text exposition or JSON.

    Purely a formatter over sinks owned elsewhere — register the sinks a
    run attached, then render after the run. Metric families:
    [<ns>_events_total{source,kind}], [<ns>_event_arg_total{source,kind}],
    [<ns>_cycles_attributed_total{source,domain,phase}] and the
    [<ns>_event_arg{source,kind}] histogram (cumulative [le] buckets on the
    log2 boundaries), where [<ns>] is ["erebor"]. The exposition
    terminates with the OpenMetrics [# EOF] marker. *)

type t

val create : unit -> t

val add :
  t ->
  label:string ->
  ?counter:Counter.t ->
  ?histogram:Histogram.t ->
  ?attrib:Attrib.t ->
  unit ->
  unit
(** Register one source (rendered with label [source="label"]). *)

val escape_label : string -> string
(** Prometheus label-value escaping (backslash, quote, newline). *)

val to_prometheus : t -> string
(** Text exposition format 0.0.4; zero-count series are omitted. *)

val to_json : t -> string
