(* Run-diffing: replay two journals through the live Attrib profiler (one
   {!Journal.replay} each) and compare the resulting (domain x phase)
   attributions. *)

type entry = {
  edomain : Trace.domain;
  ephase : Trace.phase;
  cycles_a : int;
  cycles_b : int;
  count_a : int;
  count_b : int;
  delta : int;
  pct : float;
}

type t = {
  entries : entry list;
  events_a : int;
  events_b : int;
  total_a : int;
  total_b : int;
}

(* One Attrib per stream; the stream's finalizer closes it and adds its
   self-cycles to the totals. One Counter shared by every stream counts the
   spans entered. *)
let attribution ~path =
  let cycles = Array.make Trace.n_phases 0 in
  let counter = Counter.create () in
  let stream ~machine:_ =
    let em = Emitter.create () in
    let att = Attrib.attach em (Attrib.create ()) in
    ignore (Counter.attach em counter);
    Emitter.add_finalizer em (fun ~now ->
        Attrib.close att ~now;
        List.iter
          (fun (_, p, c) ->
            let i = Trace.phase_index p in
            cycles.(i) <- cycles.(i) + c)
          (Attrib.breakdown att));
    em
  in
  Result.map
    (fun info ->
      let spans i =
        Counter.count counter (Trace.span_begin (Trace.phase_of_index i))
      in
      (Array.init Trace.n_phases (fun i -> (cycles.(i), spans i)), info))
    (Journal.replay ~path stream)

let compare_files ~a ~b =
  match attribution ~path:a with
  | Error e -> Error ("run A: " ^ e)
  | Ok (aa, ia) -> (
      match attribution ~path:b with
      | Error e -> Error ("run B: " ^ e)
      | Ok (ab, ib) ->
          let entries =
            List.filter_map
              (fun p ->
                let i = Trace.phase_index p in
                let ca, na = aa.(i) in
                let cb, nb = ab.(i) in
                if ca = 0 && cb = 0 && na = 0 && nb = 0 then None
                else
                  Some
                    {
                      edomain = Trace.phase_domain p;
                      ephase = p;
                      cycles_a = ca;
                      cycles_b = cb;
                      count_a = na;
                      count_b = nb;
                      delta = cb - ca;
                      pct =
                        (if ca = 0 then
                           if cb = 0 then 0.0 else infinity
                         else
                           100.0 *. float_of_int (cb - ca) /. float_of_int ca);
                    })
              Trace.all_phases
          in
          let total arr =
            Array.fold_left (fun acc (c, _) -> acc + c) 0 arr
          in
          Ok
            {
              entries;
              events_a = ia.Journal.events;
              events_b = ib.Journal.events;
              total_a = total aa;
              total_b = total ab;
            })

let is_regression ~threshold ~min_cycles e =
  e.delta >= min_cycles
  && (e.cycles_a = 0 || e.pct > threshold)

let regressions ?(threshold = 5.0) ?(min_cycles = 1000) t =
  List.filter (is_regression ~threshold ~min_cycles) t.entries

let render ?(threshold = 5.0) ?(min_cycles = 1000) t =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "events: %d -> %d   attributed cycles: %d -> %d\n"
       t.events_a t.events_b t.total_a t.total_b);
  Buffer.add_string b
    (Printf.sprintf "%-8s %-10s %14s %14s %12s %9s %8s %8s\n" "domain"
       "phase" "cycles A" "cycles B" "delta" "pct" "count A" "count B");
  List.iter
    (fun e ->
      let flag = if is_regression ~threshold ~min_cycles e then " !" else "" in
      Buffer.add_string b
        (Printf.sprintf "%-8s %-10s %14d %14d %12d %8.2f%% %8d %8d%s\n"
           (Trace.domain_name e.edomain) (Trace.phase_name e.ephase)
           e.cycles_a e.cycles_b e.delta
           (if e.pct = infinity then 999.99 else e.pct)
           e.count_a e.count_b flag))
    t.entries;
  let regs = regressions ~threshold ~min_cycles t in
  Buffer.add_string b
    (if regs = [] then "no regressions\n"
     else Printf.sprintf "%d regression(s) above %.1f%%\n" (List.length regs)
         threshold);
  Buffer.contents b
