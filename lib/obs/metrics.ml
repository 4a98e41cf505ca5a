(* Metrics registry: renders counter / histogram / attribution sinks as
   Prometheus text exposition (format 0.0.4) or JSON. Purely a formatter —
   the registry holds references to sinks owned elsewhere and reads them at
   render time, so registering costs nothing during a run. *)

type source = {
  label : string;
  counter : Counter.t option;
  histogram : Histogram.t option;
  attrib : Attrib.t option;
  window : Window.t option;
  sketch : Sketch.t option;
  exemplar : Exemplar.t option;
}

type t = { namespace : string; mutable sources : source list (* reversed *) }

let create ?(namespace = "erebor") () = { namespace; sources = [] }

let add t ~label ?counter ?histogram ?attrib ?window ?sketch ?exemplar () =
  t.sources <-
    { label; counter; histogram; attrib; window; sketch; exemplar }
    :: t.sources

let sources t = List.rev t.sources

(* Escaping per the exposition format: label values escape backslash,
   double-quote and newline; HELP text escapes backslash and newline. *)
let escape_label s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unattributed_domain = "none"
let unattributed_phase = "(outside)"

let to_prometheus t =
  let buf = Buffer.create 4096 in
  let ns = t.namespace in
  let srcs = sources t in
  let header ?unit_ name typ help =
    Printf.bprintf buf "# HELP %s_%s %s\n# TYPE %s_%s %s\n" ns name help ns
      name typ;
    (* OpenMetrics: a UNIT line for families whose name carries a unit
       suffix. *)
    match unit_ with
    | None -> ()
    | Some u -> Printf.bprintf buf "# UNIT %s_%s %s\n" ns name u
  in
  let family ?unit_ name typ help render =
    let started = ref false in
    List.iter
      (fun s ->
        render s (fun line ->
            if not !started then begin
              started := true;
              header ?unit_ name typ help
            end;
            Buffer.add_string buf line))
      srcs
  in
  family "events_total" "counter" "Events observed per trace kind."
    (fun s out ->
      match s.counter with
      | None -> ()
      | Some c ->
          List.iter
            (fun kind ->
              let n = Counter.count c kind in
              if n > 0 then
                out
                  (Printf.sprintf "%s_events_total{source=\"%s\",kind=\"%s\"} %d\n"
                     ns (escape_label s.label)
                     (escape_label (Trace.name kind))
                     n))
            Trace.all);
  family "event_arg_total" "counter"
    "Sum of event arguments per kind (cycles, bytes or ids)." (fun s out ->
      match s.counter with
      | None -> ()
      | Some c ->
          List.iter
            (fun kind ->
              if Counter.count c kind > 0 then
                out
                  (Printf.sprintf
                     "%s_event_arg_total{source=\"%s\",kind=\"%s\"} %d\n" ns
                     (escape_label s.label)
                     (escape_label (Trace.name kind))
                     (Counter.arg_sum c kind)))
            Trace.all);
  family "cycles_attributed_total" "counter"
    "Virtual cycles attributed per (privilege domain, phase)." (fun s out ->
      match s.attrib with
      | None -> ()
      | Some a ->
          let row domain phase cycles =
            out
              (Printf.sprintf
                 "%s_cycles_attributed_total{source=\"%s\",domain=\"%s\",phase=\"%s\"} %d\n"
                 ns (escape_label s.label) (escape_label domain)
                 (escape_label phase) cycles)
          in
          let u = Attrib.unattributed a in
          if u > 0 then row unattributed_domain unattributed_phase u;
          List.iter
            (fun (d, p, cycles) ->
              row (Trace.domain_name d) (Trace.phase_name p) cycles)
            (Attrib.breakdown a));
  (* Window-scoped series: gauges over the sliding window, not lifetime
     counters — they describe "now", and age out with the ring. *)
  family "window_events" "gauge"
    "Events in the sliding window per trace kind." (fun s out ->
      match s.window with
      | None -> ()
      | Some w ->
          List.iter
            (fun kind ->
              let n = Window.count w kind in
              if n > 0 then
                out
                  (Printf.sprintf
                     "%s_window_events{source=\"%s\",kind=\"%s\"} %d\n" ns
                     (escape_label s.label)
                     (escape_label (Trace.name kind))
                     n))
            Trace.all);
  family "window_rate" "gauge"
    "Events per virtual second over the sliding window." (fun s out ->
      match s.window with
      | None -> ()
      | Some w ->
          List.iter
            (fun kind ->
              if Window.count w kind > 0 then
                out
                  (Printf.sprintf
                     "%s_window_rate{source=\"%s\",kind=\"%s\"} %.2f\n" ns
                     (escape_label s.label)
                     (escape_label (Trace.name kind))
                     (Window.rate w kind)))
            Trace.all);
  family "window_arg" "gauge"
    "Event-argument quantiles over the sliding window (merge-on-read)."
    (fun s out ->
      match s.window with
      | None -> ()
      | Some w ->
          List.iter
            (fun kind ->
              if Window.hist_tracked w kind && Window.count w kind > 0 then
                List.iter
                  (fun (q, p) ->
                    out
                      (Printf.sprintf
                         "%s_window_arg{source=\"%s\",kind=\"%s\",quantile=\"%s\"} %d\n"
                         ns (escape_label s.label)
                         (escape_label (Trace.name kind))
                         q
                         (Window.percentile w kind ~p)))
                  [ ("0.5", 0.50); ("0.95", 0.95); ("0.99", 0.99) ])
            Trace.all);
  family "event_arg" "histogram"
    "Event-argument distribution per kind (log2 buckets)." (fun s out ->
      match s.histogram with
      | None -> ()
      | Some h ->
          List.iter
            (fun kind ->
              let n = Histogram.count h kind in
              if n > 0 then begin
                let labels =
                  Printf.sprintf "source=\"%s\",kind=\"%s\""
                    (escape_label s.label)
                    (escape_label (Trace.name kind))
                in
                let cum = ref 0 in
                List.iter
                  (fun (_, hi, c) ->
                    cum := !cum + c;
                    out
                      (Printf.sprintf "%s_event_arg_bucket{%s,le=\"%d\"} %d\n"
                         ns labels hi !cum))
                  (Histogram.buckets h kind);
                out
                  (Printf.sprintf "%s_event_arg_bucket{%s,le=\"+Inf\"} %d\n" ns
                     labels n);
                out
                  (Printf.sprintf "%s_event_arg_sum{%s} %d\n" ns labels
                     (Histogram.sum h kind));
                out (Printf.sprintf "%s_event_arg_count{%s} %d\n" ns labels n)
              end)
            Trace.all);
  (* Sketch-backed families (fleet telemetry). The histogram exposition
     re-buckets the sketch onto the log2 exemplar bands so each bucket
     line can carry that band's OpenMetrics exemplar:
       ..._bucket{le="1023"} 412 # {trace_id="0x2a",...} 987 55        *)
  let sketch_band_counts sk =
    let bands = Array.make Exemplar.n_bands 0 in
    bands.(0) <- Sketch.zeros sk;
    List.iter
      (fun (i, c) ->
        let b = Exemplar.band_of (Sketch.estimate sk i) in
        bands.(b) <- bands.(b) + c)
      (Sketch.buckets sk);
    bands
  in
  let exemplar_suffix s band =
    match s.exemplar with
    | None -> ""
    | Some ex -> (
        match Exemplar.best ex ~band with
        | None -> ""
        | Some e ->
            Printf.sprintf
              " # {trace_id=\"%#x\",machine=\"%s\",offset=\"%d\"} %d %d"
              e.Exemplar.i_trace_id
              (escape_label e.Exemplar.i_machine)
              e.Exemplar.i_offset e.Exemplar.i_latency e.Exemplar.i_ts)
  in
  family ~unit_:"cycles" "sketch_latency_cycles" "histogram"
    "Request-latency distribution from the mergeable quantile sketch \
     (log2 exposition bands; bucket lines carry OpenMetrics exemplars)."
    (fun s out ->
      match s.sketch with
      | None -> ()
      | Some sk ->
          let n = Sketch.count sk in
          if n > 0 then begin
            let labels =
              Printf.sprintf "source=\"%s\"" (escape_label s.label)
            in
            let bands = sketch_band_counts sk in
            let cum = ref 0 in
            for b = 0 to Exemplar.n_bands - 1 do
              if bands.(b) > 0 then begin
                cum := !cum + bands.(b);
                out
                  (Printf.sprintf
                     "%s_sketch_latency_cycles_bucket{%s,le=\"%d\"} %d%s\n" ns
                     labels (Exemplar.band_hi b) !cum (exemplar_suffix s b))
              end
            done;
            out
              (Printf.sprintf
                 "%s_sketch_latency_cycles_bucket{%s,le=\"+Inf\"} %d\n" ns
                 labels n);
            out
              (Printf.sprintf "%s_sketch_latency_cycles_sum{%s} %d\n" ns labels
                 (Sketch.sum sk));
            out
              (Printf.sprintf "%s_sketch_latency_cycles_count{%s} %d\n" ns
                 labels n)
          end);
  family ~unit_:"cycles" "sketch_quantile_cycles" "summary"
    "Request-latency quantiles from the mergeable sketch (relative-error \
     bounded, merge-order invariant)."
    (fun s out ->
      match s.sketch with
      | None -> ()
      | Some sk ->
          let n = Sketch.count sk in
          if n > 0 then begin
            let labels =
              Printf.sprintf "source=\"%s\"" (escape_label s.label)
            in
            List.iter
              (fun (q, p) ->
                out
                  (Printf.sprintf
                     "%s_sketch_quantile_cycles{%s,quantile=\"%s\"} %d\n" ns
                     labels q (Sketch.quantile sk ~p)))
              [ ("0.5", 0.50); ("0.95", 0.95); ("0.99", 0.99) ];
            out
              (Printf.sprintf "%s_sketch_quantile_cycles_sum{%s} %d\n" ns
                 labels (Sketch.sum sk));
            out
              (Printf.sprintf "%s_sketch_quantile_cycles_count{%s} %d\n" ns
                 labels n)
          end);
  (* OpenMetrics requires the exposition to end with an EOF marker. *)
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* JSON rendering of the same data, one object per source. *)

let to_json t =
  let buf = Buffer.create 4096 in
  let comma first = if !first then first := false else Buffer.add_char buf ',' in
  Printf.bprintf buf "{\"namespace\":\"%s\",\"sources\":["
    (Audit.escape_json t.namespace);
  let first_src = ref true in
  List.iter
    (fun s ->
      comma first_src;
      Printf.bprintf buf "{\"label\":\"%s\"" (Audit.escape_json s.label);
      (match s.counter with
      | None -> ()
      | Some c ->
          Buffer.add_string buf ",\"events\":[";
          let first = ref true in
          List.iter
            (fun kind ->
              let n = Counter.count c kind in
              if n > 0 then begin
                comma first;
                Printf.bprintf buf
                  "{\"kind\":\"%s\",\"count\":%d,\"arg_sum\":%d}"
                  (Audit.escape_json (Trace.name kind))
                  n (Counter.arg_sum c kind)
              end)
            Trace.all;
          Buffer.add_string buf "]");
      (match s.histogram with
      | None -> ()
      | Some h ->
          Buffer.add_string buf ",\"histograms\":[";
          let first = ref true in
          List.iter
            (fun kind ->
              let n = Histogram.count h kind in
              if n > 0 then begin
                comma first;
                Printf.bprintf buf
                  "{\"kind\":\"%s\",\"count\":%d,\"sum\":%d,\"max\":%d,\"p50\":%d,\"p95\":%d,\"p99\":%d,\"buckets\":["
                  (Audit.escape_json (Trace.name kind))
                  n (Histogram.sum h kind)
                  (Histogram.max_value h kind)
                  (Histogram.percentile h kind ~p:0.50)
                  (Histogram.percentile h kind ~p:0.95)
                  (Histogram.percentile h kind ~p:0.99);
                let first_b = ref true in
                List.iter
                  (fun (lo, hi, c) ->
                    comma first_b;
                    Printf.bprintf buf "{\"lo\":%d,\"hi\":%d,\"count\":%d}" lo
                      hi c)
                  (Histogram.buckets h kind);
                Buffer.add_string buf "]}"
              end)
            Trace.all;
          Buffer.add_string buf "]");
      (match s.attrib with
      | None -> ()
      | Some a ->
          Printf.bprintf buf
            ",\"attribution\":{\"total\":%d,\"unattributed\":%d,\"contexts\":["
            (Attrib.total a) (Attrib.unattributed a);
          let first = ref true in
          List.iter
            (fun (d, p, cycles) ->
              comma first;
              Printf.bprintf buf
                "{\"domain\":\"%s\",\"phase\":\"%s\",\"cycles\":%d}"
                (Trace.domain_name d)
                (Audit.escape_json (Trace.phase_name p))
                cycles)
            (Attrib.breakdown a);
          Buffer.add_string buf "]}");
      (match s.window with
      | None -> ()
      | Some w ->
          Buffer.add_string buf ",\"window\":";
          Buffer.add_string buf (Window.to_json w ()));
      (match s.sketch with
      | None -> ()
      | Some sk ->
          Printf.bprintf buf
            ",\"sketch\":{\"alpha\":%g,\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"p50\":%d,\"p95\":%d,\"p99\":%d}"
            (Sketch.alpha sk) (Sketch.count sk) (Sketch.sum sk)
            (Sketch.min_value sk) (Sketch.max_value sk)
            (Sketch.quantile sk ~p:0.50) (Sketch.quantile sk ~p:0.95)
            (Sketch.quantile sk ~p:0.99));
      (match s.exemplar with
      | None -> ()
      | Some ex ->
          Buffer.add_string buf ",\"exemplars\":[";
          let first = ref true in
          List.iter
            (fun (b, (e : Exemplar.item)) ->
              comma first;
              Printf.bprintf buf
                "{\"band_lo\":%d,\"band_hi\":%d,\"latency\":%d,\"trace_id\":%d,\"machine\":\"%s\",\"offset\":%d,\"ts\":%d}"
                (Exemplar.band_lo b) (Exemplar.band_hi b) e.Exemplar.i_latency
                e.Exemplar.i_trace_id
                (Audit.escape_json e.Exemplar.i_machine)
                e.Exemplar.i_offset e.Exemplar.i_ts)
            (Exemplar.items ex);
          Buffer.add_string buf "]");
      Buffer.add_string buf "}")
    (sources t);
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
