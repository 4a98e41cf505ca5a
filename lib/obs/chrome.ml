(* Full-stream recorder + Chrome-trace / JSONL exporters. The recorder keeps
   every event in growable parallel arrays (events are small and a run emits
   at most a few hundred thousand), so the same recording backs the golden
   determinism tests and the --trace export. *)

type t = {
  mutable kinds : Trace.kind array;
  mutable tss : int array;
  mutable args : int array;
  mutable len : int;
}

let create () =
  { kinds = Array.make 1024 Trace.Emc_entry;
    tss = Array.make 1024 0;
    args = Array.make 1024 0;
    len = 0 }

let grow t =
  let cap = Array.length t.kinds in
  let ncap = cap * 2 in
  let nk = Array.make ncap Trace.Emc_entry in
  let nt = Array.make ncap 0 in
  let na = Array.make ncap 0 in
  Array.blit t.kinds 0 nk 0 cap;
  Array.blit t.tss 0 nt 0 cap;
  Array.blit t.args 0 na 0 cap;
  t.kinds <- nk;
  t.tss <- nt;
  t.args <- na

let sink t kind ~ts ~arg =
  if t.len = Array.length t.kinds then grow t;
  t.kinds.(t.len) <- kind;
  t.tss.(t.len) <- ts;
  t.args.(t.len) <- arg;
  t.len <- t.len + 1

let attach emitter t =
  Emitter.attach emitter (sink t);
  t

let length t = t.len

let events t =
  List.init t.len (fun i ->
      { Trace.kind = t.kinds.(i); ts = t.tss.(i); arg = t.args.(i) })

let iter t f =
  for i = 0 to t.len - 1 do
    f { Trace.kind = t.kinds.(i); ts = t.tss.(i); arg = t.args.(i) }
  done

(* Chrome trace-event format (the JSON object form, loadable in
   chrome://tracing and Perfetto). Spans map to "B"/"E" duration events;
   everything else is an instant ("i"). Timestamps are virtual cycles —
   microseconds in the viewer, which only rescales the axis. *)

(* Event and phase names are wire constants today, but the format must stay
   valid even if the taxonomy grows names with JSON-significant characters
   — and the exporter must not hand the viewer a malformed trace when a
   recording stops mid-span (aborted run, post-mortem dump). *)
let span_json buf ph name ts =
  Printf.bprintf buf
    {|{"name":"%s","cat":"span","ph":"%c","ts":%d,"pid":0,"tid":0}|}
    (Audit.escape_json name) ph ts

let event_json buf e =
  let kind = e.Trace.kind in
  (match kind with
  | Trace.Span_begin p -> span_json buf 'B' (Trace.phase_name p) e.Trace.ts
  | Trace.Span_end p -> span_json buf 'E' (Trace.phase_name p) e.Trace.ts
  | _ ->
      Printf.bprintf buf
        {|{"name":"%s","cat":"event","ph":"i","ts":%d,"pid":0,"tid":0,"s":"t","args":{"v":%d}}|}
        (Audit.escape_json (Trace.name kind))
        e.Trace.ts e.Trace.arg)

let to_chrome_json t =
  let buf = Buffer.create (256 + (t.len * 96)) in
  Buffer.add_string buf {|{"displayTimeUnit":"ns","traceEvents":[|};
  let first = ref true in
  let emit render =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '\n';
    render ()
  in
  (* Keep the B/E nesting balanced even if the recording is not: drop a
     stray E with no matching open span, and close still-open spans with
     synthetic E events at the last recorded timestamp. *)
  let open_spans = ref [] in
  let last_ts = ref 0 in
  iter t (fun e ->
      last_ts := e.Trace.ts;
      match e.Trace.kind with
      | Trace.Span_begin p ->
          open_spans := p :: !open_spans;
          emit (fun () -> event_json buf e)
      | Trace.Span_end _ -> (
          match !open_spans with
          | [] -> () (* unmatched end: dropping it keeps the trace valid *)
          | p :: rest ->
              open_spans := rest;
              (* Close what is actually open — viewers match E to the
                 innermost B by position, not by name. *)
              emit (fun () ->
                  span_json buf 'E' (Trace.phase_name p) e.Trace.ts))
      | _ -> emit (fun () -> event_json buf e));
  List.iter
    (fun p ->
      emit (fun () -> span_json buf 'E' (Trace.phase_name p) !last_ts))
    !open_spans;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let to_jsonl t =
  let buf = Buffer.create (t.len * 64) in
  iter t (fun e ->
      Printf.bprintf buf {|{"ts":%d,"kind":"%s","arg":%d}|} e.Trace.ts
        (Audit.escape_json (Trace.name e.Trace.kind))
        e.Trace.arg;
      Buffer.add_char buf '\n');
  Buffer.contents buf
