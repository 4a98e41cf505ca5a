(* Request-scoped causal tracing.

   A trace context is minted at the channel client ({!mint}) and propagated
   inside the sealed message header; each hop that decodes it emits
   [Req_begin]/[Req_end] marker events carrying the context packed into the
   int argument ({!pack}), so the existing (kind, ts, arg) bus needs no new
   plumbing. A collector attached to one or more emitters ({!attach}) turns
   the span stream between the markers into a per-machine segment; segments
   sharing a trace id form the request's cross-machine causal tree, with the
   client-side segment (root bit set) as the root.

   Head-based sampling: the decision is taken once at [mint] and travels in
   the context, so every hop agrees. Unsampled requests still feed the
   latency histogram (the root window is always timed); only span
   collection is skipped. Collection never advances the virtual clock. *)

type ctx = { trace_id : int; span_id : int; sampled : bool }

(* arg layout: trace_id lsl 2 | root lsl 1 | sampled. The span id does not
   travel in marker events — each machine window is one segment, so the
   (trace_id, machine) pair identifies it. *)
let pack ctx ~root =
  (ctx.trace_id lsl 2)
  lor (if root then 2 else 0)
  lor (if ctx.sampled then 1 else 0)

let unpack arg =
  ( { trace_id = arg lsr 2; span_id = 0; sampled = arg land 1 = 1 },
    arg land 2 <> 0 )

(* Immutable views handed to callers. *)
type span = { phase : Trace.phase; t0 : int; t1 : int; children : span list }

type segment = {
  machine : string;
  root : bool;
  seg_t0 : int;
  seg_t1 : int;
  spans : span list;
}

(* Mutable builders used while a window is open. *)
type bspan = {
  bphase : Trace.phase;
  bt0 : int;
  mutable bt1 : int;
  mutable bkids : bspan list; (* reversed *)
}

type bseg = {
  bmachine : string;
  btrace : int;
  broot : bool;
  bsampled : bool;
  bseg_t0 : int;
  mutable btop : bspan list;  (* reversed top-level spans *)
  mutable bstack : bspan list; (* open spans, innermost first *)
}

type t = {
  sample_every : int;
  collect_spans : bool;
  mutable next_id : int;
  mutable completed : int;
  by_trace : (int, segment list ref) Hashtbl.t; (* reversed arrival order *)
  latency : Histogram.dist; (* root-window cycles *)
}

let create ?(sample_every = 1) ?(collect_spans = true) () =
  if sample_every < 1 then invalid_arg "Request.create: sample_every < 1";
  { sample_every; collect_spans; next_id = 0; completed = 0;
    by_trace = Hashtbl.create 64; latency = Histogram.dist () }

let mint t =
  let id = t.next_id in
  t.next_id <- id + 1;
  { trace_id = id; span_id = 1; sampled = id mod t.sample_every = 0 }

let rec freeze_span b =
  { phase = b.bphase; t0 = b.bt0; t1 = b.bt1;
    children = List.rev_map freeze_span b.bkids }

let freeze_seg b ~t1 =
  {
    machine = b.bmachine;
    root = b.broot;
    seg_t0 = b.bseg_t0;
    seg_t1 = t1;
    spans = List.rev_map freeze_span b.btop;
  }

let add_segment t seg ~trace_id =
  let cell =
    match Hashtbl.find_opt t.by_trace trace_id with
    | Some c -> c
    | None ->
        let c = ref [] in
        Hashtbl.add t.by_trace trace_id c;
        c
  in
  cell := seg :: !cell

let attach t ~machine emitter =
  let current = ref None in
  let sink kind ~ts ~arg =
    match !current with
    | None ->
        if kind = Trace.Req_begin then begin
          let cx, root = unpack arg in
          current :=
            Some
              {
                bmachine = machine;
                btrace = cx.trace_id;
                broot = root;
                bsampled = cx.sampled;
                bseg_t0 = ts;
                btop = [];
                bstack = [];
              }
        end
    | Some seg -> (
        match kind with
        | Trace.Req_end ->
            (* The root window ignores nested non-root ends (single-emitter
               setups see both sides of the channel on one bus). *)
            let cx, root = unpack arg in
            if cx.trace_id = seg.btrace && root = seg.broot then begin
              (* Close any still-open spans at the window end. *)
              List.iter (fun b -> if b.bt1 < ts then b.bt1 <- ts) seg.bstack;
              if seg.bsampled then
                add_segment t (freeze_seg seg ~t1:ts) ~trace_id:seg.btrace;
              if seg.broot then begin
                t.completed <- t.completed + 1;
                Histogram.observe t.latency (ts - seg.bseg_t0)
              end;
              current := None
            end
        | Trace.Span_begin p when seg.bsampled && t.collect_spans ->
            let b = { bphase = p; bt0 = ts; bt1 = ts; bkids = [] } in
            seg.bstack <- b :: seg.bstack
        | Trace.Span_end _ when seg.bsampled && t.collect_spans -> (
            match seg.bstack with
            | [] -> () (* stray end from a span opened before the window *)
            | b :: rest ->
                b.bt1 <- ts;
                seg.bstack <- rest;
                (match rest with
                | parent :: _ -> parent.bkids <- b :: parent.bkids
                | [] -> seg.btop <- b :: seg.btop))
        | _ -> ())
  in
  (* Subscribe only to what the window logic reads: the markers, plus the
     span kinds when span trees are collected at all. *)
  let spans =
    if t.collect_spans then
      List.concat_map
        (fun p -> [ Trace.span_begin p; Trace.span_end p ])
        Trace.all_phases
    else []
  in
  Emitter.attach ~kinds:(Trace.Req_begin :: Trace.Req_end :: spans) emitter sink

(* --- Queries ----------------------------------------------------------- *)

let completed t = t.completed
let sampled_traces t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.by_trace [] |> List.sort compare

let tree t ~trace_id =
  match Hashtbl.find_opt t.by_trace trace_id with
  | None -> []
  | Some cell ->
      let segs = List.rev !cell in
      (* Root segment first, preserving arrival order otherwise. *)
      List.filter (fun s -> s.root) segs
      @ List.filter (fun s -> not s.root) segs

let root_cycles t ~trace_id =
  match List.find_opt (fun s -> s.root) (tree t ~trace_id) with
  | None -> None
  | Some s -> Some (s.seg_t1 - s.seg_t0)

let latency_count t = t.latency.Histogram.count
let latency_percentile t ~p = Histogram.dist_percentile t.latency ~p
let latency_mean t = Histogram.dist_mean t.latency

(* --- Exports ----------------------------------------------------------- *)

let rec span_json buf s =
  Printf.bprintf buf {|{"phase":"%s","domain":"%s","t0":%d,"t1":%d,"children":[|}
    (Trace.phase_name s.phase)
    (Trace.domain_name (Trace.phase_domain s.phase))
    s.t0 s.t1;
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      span_json buf c)
    s.children;
  Buffer.add_string buf "]}"

let seg_json buf s =
  Printf.bprintf buf
    {|{"machine":"%s","root":%b,"t0":%d,"t1":%d,"cycles":%d,"spans":[|}
    (Audit.escape_json s.machine)
    s.root s.seg_t0 s.seg_t1 (s.seg_t1 - s.seg_t0);
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_char buf ',';
      span_json buf sp)
    s.spans;
  Buffer.add_string buf "]}"

let trace_json buf t trace_id =
  Printf.bprintf buf {|{"trace_id":%d,|} trace_id;
  (match root_cycles t ~trace_id with
  | Some c -> Printf.bprintf buf {|"root_cycles":%d,|} c
  | None -> ());
  Buffer.add_string buf {|"segments":[|};
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      seg_json buf s)
    (tree t ~trace_id);
  Buffer.add_string buf "]}"

let to_json t =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    {|{"requests":%d,"sampled":%d,"latency":{"count":%d,"mean":%.1f,"p50":%d,"p95":%d,"p99":%d},"traces":[|}
    t.completed
    (Hashtbl.length t.by_trace)
    (latency_count t) (latency_mean t)
    (latency_percentile t ~p:0.50)
    (latency_percentile t ~p:0.95)
    (latency_percentile t ~p:0.99);
  List.iteri
    (fun i id ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      trace_json buf t id)
    (sampled_traces t);
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* Chrome trace of one request: each machine segment is its own tid under
   pid 0, named via thread_name metadata; spans become B/E pairs nested
   inside a whole-segment span. *)
let to_chrome_json t ~trace_id =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf {|{"displayTimeUnit":"ns","traceEvents":[|};
  let first = ref true in
  let emit render =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '\n';
    render ()
  in
  let ev fmt = Printf.ksprintf (fun s -> emit (fun () -> Buffer.add_string buf s)) fmt in
  List.iteri
    (fun tid s ->
      ev {|{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"%s"}}|}
        tid (Audit.escape_json s.machine);
      ev {|{"name":"request %d @ %s","cat":"request","ph":"B","ts":%d,"pid":0,"tid":%d}|}
        trace_id (Audit.escape_json s.machine) s.seg_t0 tid;
      let rec walk sp =
        ev {|{"name":"%s","cat":"span","ph":"B","ts":%d,"pid":0,"tid":%d}|}
          (Audit.escape_json (Trace.phase_name sp.phase)) sp.t0 tid;
        List.iter walk sp.children;
        ev {|{"name":"%s","cat":"span","ph":"E","ts":%d,"pid":0,"tid":%d}|}
          (Audit.escape_json (Trace.phase_name sp.phase)) sp.t1 tid
      in
      List.iter walk s.spans;
      ev {|{"name":"request %d @ %s","cat":"request","ph":"E","ts":%d,"pid":0,"tid":%d}|}
        trace_id (Audit.escape_json s.machine) s.seg_t1 tid)
    (tree t ~trace_id);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let pp_tree fmt (t, trace_id) =
  let rec pp_span indent s =
    Fmt.pf fmt "%s%s [%d, %d] %d cycles@." indent (Trace.phase_name s.phase)
      s.t0 s.t1 (s.t1 - s.t0);
    List.iter (pp_span (indent ^ "  ")) s.children
  in
  List.iter
    (fun s ->
      Fmt.pf fmt "%s%s: [%d, %d] %d cycles@."
        (if s.root then "* " else "  ")
        s.machine s.seg_t0 s.seg_t1 (s.seg_t1 - s.seg_t0);
      List.iter (pp_span "    ") s.spans)
    (tree t ~trace_id)
