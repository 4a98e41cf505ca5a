(* Offline critical-path analysis: one {!Journal.replay} of the request
   windows + span stream, splitting each window's latency into queueing vs
   service and blaming service onto the (domain x phase) taxonomy. *)

type blame = { bdomain : Trace.domain; bphase : Trace.phase; bcycles : int }

type request = {
  trace_id : int;
  root : bool;
  rt0 : int;
  rt1 : int;
  total : int;
  service : int;
  queueing : int;
  path : blame list;
}

type report = {
  requests : request list;
  n : int;
  lat_p50 : int;
  lat_p95 : int;
  lat_p99 : int;
  total_service : int;
  total_queueing : int;
  phase_totals : (Trace.domain * Trace.phase * int) list;
}

(* An open span on a stream's stack. [child] accumulates the inclusive
   durations of nested spans so self = duration - child at the end. *)
type open_span = { phase : Trace.phase; t0 : int; mutable child : int }

(* An open request window on a stream. *)
type open_req = {
  ot0 : int;
  oroot : bool;
  mutable oservice : int;
  oblame : int array; (* per phase index *)
}

let analyze ?(top = 10) ~path () =
  let completed = ref [] in
  (* Per-stream state lives in the stream's sink closure: its open-span
     stack and its open request windows (trace_id -> window). *)
  let stream ~machine:_ =
    let stack = ref [] and open_reqs = ref [] in
    let em = Emitter.create () in
    Emitter.attach em (fun kind ~ts ~arg ->
        match kind with
        | Trace.Req_begin ->
            let cx, root = Request.unpack arg in
            open_reqs :=
              ( cx.Request.trace_id,
                {
                  ot0 = ts;
                  oroot = root;
                  oservice = 0;
                  oblame = Array.make Trace.n_phases 0;
                } )
              :: !open_reqs
        | Trace.Req_end -> (
            let cx, _ = Request.unpack arg in
            let trace_id = cx.Request.trace_id in
            match List.assoc_opt trace_id !open_reqs with
            | None -> ()
            | Some r ->
                open_reqs := List.remove_assoc trace_id !open_reqs;
                let total = ts - r.ot0 in
                let service = Stdlib.min r.oservice total in
                let path =
                  Trace.all_phases
                  |> List.filter_map (fun p ->
                         let c = r.oblame.(Trace.phase_index p) in
                         if c = 0 then None
                         else
                           Some
                             {
                               bdomain = Trace.phase_domain p;
                               bphase = p;
                               bcycles = c;
                             })
                  |> List.sort (fun a b -> Stdlib.compare b.bcycles a.bcycles)
                in
                completed :=
                  {
                    trace_id;
                    root = r.oroot;
                    rt0 = r.ot0;
                    rt1 = ts;
                    total;
                    service;
                    queueing = Stdlib.max 0 (total - service);
                    path;
                  }
                  :: !completed)
        | Trace.Span_begin p ->
            stack := { phase = p; t0 = ts; child = 0 } :: !stack
        | Trace.Span_end p -> (
            match !stack with
            | { phase; t0; child } :: rest when phase = p ->
                stack := rest;
                let dur = ts - t0 in
                let self = Stdlib.max 0 (dur - child) in
                (match rest with
                | parent :: _ -> parent.child <- parent.child + dur
                | [] ->
                    (* A top-level span closed: its window overlap is
                       service time for every request open on the stream. *)
                    List.iter
                      (fun (_, r) ->
                        let covered = ts - Stdlib.max t0 r.ot0 in
                        if covered > 0 then r.oservice <- r.oservice + covered)
                      !open_reqs);
                let i = Trace.phase_index p in
                List.iter
                  (fun (_, r) -> r.oblame.(i) <- r.oblame.(i) + self)
                  !open_reqs
            | _ -> (* unbalanced end: ignore *) ())
        | _ -> ());
    em
  in
  match Journal.replay ~path stream with
  | Error _ as e -> e
  | Ok info ->
      let reqs = !completed in
      let n = List.length reqs in
      let latencies =
        List.map (fun r -> r.total) reqs |> List.sort Stdlib.compare
        |> Array.of_list
      in
      let pct p =
        if n = 0 then 0
        else
          let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
          latencies.(Stdlib.max 0 (Stdlib.min (n - 1) i))
      in
      let totals = Array.make Trace.n_phases 0 in
      List.iter
        (fun r ->
          List.iter
            (fun b ->
              let i = Trace.phase_index b.bphase in
              totals.(i) <- totals.(i) + b.bcycles)
            r.path)
        reqs;
      let phase_totals =
        List.filter_map
          (fun p ->
            let c = totals.(Trace.phase_index p) in
            if c = 0 then None else Some (Trace.phase_domain p, p, c))
          Trace.all_phases
      in
      let slowest =
        List.sort (fun a b -> Stdlib.compare b.total a.total) reqs
      in
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: tl -> x :: take (k - 1) tl
      in
      Ok
        ( {
            requests = take top slowest;
            n;
            lat_p50 = pct 0.5;
            lat_p95 = pct 0.95;
            lat_p99 = pct 0.99;
            total_service = List.fold_left (fun a r -> a + r.service) 0 reqs;
            total_queueing = List.fold_left (fun a r -> a + r.queueing) 0 reqs;
            phase_totals;
          },
          info )

let render rep =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "requests: %d   latency p50/p95/p99: %d / %d / %d cycles\n"
       rep.n rep.lat_p50 rep.lat_p95 rep.lat_p99);
  let tot = rep.total_service + rep.total_queueing in
  let pct x = if tot = 0 then 0.0 else 100.0 *. float_of_int x /. float_of_int tot in
  Buffer.add_string b
    (Printf.sprintf "service: %d cycles (%.1f%%)   queueing: %d cycles (%.1f%%)\n"
       rep.total_service (pct rep.total_service) rep.total_queueing
       (pct rep.total_queueing));
  if rep.phase_totals <> [] then begin
    Buffer.add_string b "blame (all requests):\n";
    List.iter
      (fun (d, p, c) ->
        Buffer.add_string b
          (Printf.sprintf "  %-8s %-10s %12d\n" (Trace.domain_name d)
             (Trace.phase_name p) c))
      (List.sort (fun (_, _, a) (_, _, b) -> Stdlib.compare b a) rep.phase_totals)
  end;
  if rep.requests <> [] then begin
    Buffer.add_string b "slowest requests:\n";
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf
             "  trace %d%s: %d cycles (service %d, queueing %d)\n" r.trace_id
             (if r.root then " (root)" else "")
             r.total r.service r.queueing);
        List.iter
          (fun bl ->
            Buffer.add_string b
              (Printf.sprintf "    %-8s %-10s %12d\n"
                 (Trace.domain_name bl.bdomain) (Trace.phase_name bl.bphase)
                 bl.bcycles))
          r.path)
      rep.requests
  end;
  Buffer.contents b
