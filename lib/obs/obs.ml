(** Re-exported submodules: the library's entry module shadows them. *)

module Trace = Trace
module Emitter = Emitter
module Counter = Counter
module Ring = Ring
module Histogram = Histogram
module Chrome = Chrome
module Attrib = Attrib
module Flame = Flame
module Metrics = Metrics
module Audit = Audit
module Window = Window
module Journal = Journal
module Query = Query
module Critical = Critical
module Diff = Diff
module Sketch = Sketch

let with_span emitter ~now phase f =
  Emitter.emit emitter (Trace.span_begin phase) ~ts:(now ()) ~arg:0;
  Fun.protect
    ~finally:(fun () ->
      Emitter.emit emitter (Trace.span_end phase) ~ts:(now ()) ~arg:0)
    f
