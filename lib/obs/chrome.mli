(** Full-stream recorder sink with a Chrome-trace exporter.

    Records every event in order. {!to_chrome_json} renders the Chrome
    trace-event JSON object format (loadable in chrome://tracing /
    Perfetto): spans become "B"/"E" duration events, everything else an
    instant event carrying its argument; timestamps are virtual cycles.
    Because the simulation is single-threaded and seeded, the recorded
    stream is deterministic — two runs with the same seed produce identical
    event lists, making the recorder a golden-trace regression instrument. *)

type t

val create : unit -> t
val attach : Emitter.t -> t -> t

val length : t -> int
val events : t -> Trace.event list
val iter : t -> (Trace.event -> unit) -> unit

val to_chrome_json : t -> string
(** Always a well-formed trace: names are JSON-escaped, an unmatched
    [Span_end] is dropped, and spans still open at end-of-recording are
    closed with synthetic ["E"] events at the last recorded timestamp. *)
