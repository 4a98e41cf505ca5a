(* Offline journal queries: one replay of filter -> group -> row
   aggregation. Every cell is a {!Histogram.dist}, so offline percentiles
   are the live histogram's, bit for bit. *)

type filter = {
  kinds : Trace.kind list;
  machines : string list;
  sandbox : int option;
  t0 : int option;
  t1 : int option;
}

let no_filter = { kinds = []; machines = []; sandbox = None; t0 = None; t1 = None }

type group = By_kind | By_machine | By_phase | By_none

type row = {
  label : string;
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : int;
  p95 : int;
  p99 : int;
}

let row_of label (d : Histogram.dist) =
  {
    label;
    count = d.count;
    sum = d.sum;
    min = Histogram.dist_min d;
    max = d.vmax;
    p50 = Histogram.dist_percentile d ~p:0.5;
    p95 = Histogram.dist_percentile d ~p:0.95;
    p99 = Histogram.dist_percentile d ~p:0.99;
  }

let run ?(filter = no_filter) ?(group = By_kind) ~path () =
  let kind_mask = Array.make Trace.n_kinds (filter.kinds = []) in
  List.iter (fun k -> kind_mask.(Trace.index k) <- true) filter.kinds;
  let in_time ts =
    (match filter.t0 with None -> true | Some t -> ts >= t)
    && match filter.t1 with None -> true | Some t -> ts <= t
  in
  (* Cells: fixed per kind / per phase / one overall, or one per stream. *)
  let by_kind = Array.init Trace.n_kinds (fun _ -> Histogram.dist ()) in
  let by_phase = Array.init Trace.n_phases (fun _ -> Histogram.dist ()) in
  let all = Histogram.dist () in
  let by_machine = ref [] in
  let stream ~machine =
    let em = Emitter.create () in
    if filter.machines = [] || List.mem machine filter.machines then begin
      let mine = Histogram.dist () in
      by_machine := (machine, mine) :: !by_machine;
      let in_sandbox = ref false in
      (* [spans.(phase)]: stack of open-span begin timestamps. *)
      let spans = Array.make Trace.n_phases [] in
      Emitter.attach em (fun kind ~ts ~arg ->
          (* The sandbox's lifetime window is tracked before the other
             filters, so it doesn't depend on which kinds are selected. *)
          let boundary =
            match (filter.sandbox, kind) with
            | ( Some id,
                (Trace.Sandbox_create | Trace.Sandbox_exit | Trace.Sandbox_kill) )
              when arg = id ->
                in_sandbox := kind = Trace.Sandbox_create;
                true
            | _ -> false
          in
          if (filter.sandbox = None || !in_sandbox || boundary)
             && in_time ts && kind_mask.(Trace.index kind)
          then
            match group with
            | By_kind -> Histogram.observe by_kind.(Trace.index kind) arg
            | By_machine -> Histogram.observe mine arg
            | By_none -> Histogram.observe all arg
            | By_phase -> (
                match kind with
                | Trace.Span_begin p ->
                    let i = Trace.phase_index p in
                    spans.(i) <- ts :: spans.(i)
                | Trace.Span_end p -> (
                    let i = Trace.phase_index p in
                    match spans.(i) with
                    | [] -> ()
                    | t0 :: rest ->
                        spans.(i) <- rest;
                        Histogram.observe by_phase.(i) (ts - t0))
                | _ -> ()))
    end;
    em
  in
  Result.map
    (fun info ->
      let cells =
        match group with
        | By_kind ->
            List.map (fun k -> (Trace.name k, by_kind.(Trace.index k))) Trace.all
        | By_phase ->
            List.map
              (fun p -> (Trace.phase_name p, by_phase.(Trace.phase_index p)))
              Trace.all_phases
        | By_machine -> !by_machine
        | By_none -> [ ("all", all) ]
      in
      let rows =
        List.filter_map
          (fun (label, (d : Histogram.dist)) ->
            if d.count = 0 then None else Some (row_of label d))
          cells
        |> List.sort (fun (a : row) (b : row) ->
               match Stdlib.compare b.count a.count with
               | 0 -> Stdlib.compare a.label b.label
               | c -> c)
      in
      (rows, info))
    (Journal.replay ~path stream)

let render rows =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%-20s %10s %14s %10s %10s %10s\n" "group" "count" "sum"
       "p50" "p95" "p99");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-20s %10d %14d %10d %10d %10d\n" r.label r.count
           r.sum r.p50 r.p95 r.p99))
    rows;
  Buffer.contents b
