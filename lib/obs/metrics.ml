(* Metrics registry: renders counter / histogram / attribution sinks as
   Prometheus text exposition (format 0.0.4) or JSON. Purely a formatter —
   the registry holds references to sinks owned elsewhere and reads them at
   render time, so registering costs nothing during a run. *)

type source = {
  label : string;
  counter : Counter.t option;
  histogram : Histogram.t option;
  attrib : Attrib.t option;
}

type t = { mutable sources : source list (* reversed *) }

(* Every metric family name carries this prefix. *)
let ns = "erebor"
let create () = { sources = [] }

let add t ~label ?counter ?histogram ?attrib () =
  t.sources <- { label; counter; histogram; attrib } :: t.sources

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
  let srcs = sources t in
  let header name typ help =
    Printf.bprintf buf "# HELP %s_%s %s\n# TYPE %s_%s %s\n" ns name help ns
      name typ
  in
  let family name typ help render =
    let started = ref false in
    List.iter
      (fun s ->
        render s (fun line ->
            if not !started then begin
              started := true;
              header name typ help
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
  (* OpenMetrics requires the exposition to end with an EOF marker. *)
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* JSON rendering of the same data, one object per source. *)

let to_json t =
  let buf = Buffer.create 4096 in
  let comma first = if !first then first := false else Buffer.add_char buf ',' in
  Printf.bprintf buf "{\"namespace\":\"%s\",\"sources\":[" ns;
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
      Buffer.add_string buf "}")
    (sources t);
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
