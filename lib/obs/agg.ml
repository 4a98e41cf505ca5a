(* Fleet aggregator: one [part] per machine collects Counter / Sketch /
   Topk / Exemplar state; [seal] freezes a part into a snapshot; [merge]
   combines snapshots. Every component is canonical (a pure function of
   the recorded multiset), so the merged snapshot is structurally equal,
   and everything rendered from it byte-identical, for any merge order,
   grouping, or [Sim.Runner ~jobs] schedule. That is the same determinism
   contract the eval tables carry.

   The per-request record path is allocation-free: tenant handles
   pre-intern one (tenant x kind) key string per event kind so the
   heavy-hitter observe never builds a key, and the sketch / exemplar
   sinks write into preallocated state. *)

type part = {
  p_machine : string;
  p_counters : Counter.t;
  p_latency : Sketch.t; (* fleet-wide request latency *)
  p_tenants : (string, tenant) Hashtbl.t;
  p_topk : Topk.t;
  p_exemplars : Exemplar.t;
}

and tenant = {
  t_name : string;
  t_sketch : Sketch.t; (* this tenant's request latency *)
  t_keys : string array; (* kind index -> "tenant/kind-name" *)
}

let all_kinds = Array.of_list Trace.all

let part ~machine () =
  {
    p_machine = machine;
    p_counters = Counter.create ();
    p_latency = Sketch.create ();
    p_tenants = Hashtbl.create 16;
    p_topk = Topk.create ();
    p_exemplars = Exemplar.create ();
  }

let attach emitter p =
  ignore (Counter.attach emitter p.p_counters);
  p

let machine p = p.p_machine
let counters p = p.p_counters

let tenant p name =
  match Hashtbl.find_opt p.p_tenants name with
  | Some t -> t
  | None ->
      let t =
        {
          t_name = name;
          t_sketch = Sketch.create ();
          t_keys =
            Array.init Trace.n_kinds (fun i ->
                name ^ "/" ^ Trace.name all_kinds.(i));
        }
      in
      Hashtbl.replace p.p_tenants name t;
      t

let record p t kind ~latency ~trace_id ~offset ~ts =
  Sketch.record p.p_latency latency;
  Sketch.record t.t_sketch latency;
  Topk.observe p.p_topk ~key:t.t_keys.(Trace.index kind) ~weight:1;
  Exemplar.record p.p_exemplars ~latency ~trace_id ~machine:p.p_machine
    ~offset ~ts

(* {2 Sealed snapshots} *)

type t = {
  machines : string list; (* sorted, deduped *)
  counts : int array; (* kind index -> event count *)
  arg_sums : int array;
  latency : Sketch.t;
  tenants : (string * Sketch.t) list; (* sorted by tenant name *)
  topk : Topk.summary;
  exemplars : Exemplar.t;
}

let copy_sketch s =
  let c = Sketch.create () in
  Sketch.merge ~into:c s;
  c

let seal p =
  let tenants =
    Hashtbl.fold (fun name t acc -> (name, copy_sketch t.t_sketch) :: acc)
      p.p_tenants []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    machines = [ p.p_machine ];
    counts = Array.init Trace.n_kinds (fun i ->
        Counter.count p.p_counters all_kinds.(i));
    arg_sums = Array.init Trace.n_kinds (fun i ->
        Counter.arg_sum p.p_counters all_kinds.(i));
    latency = copy_sketch p.p_latency;
    tenants;
    topk = Topk.seal p.p_topk;
    exemplars =
      (let e = Exemplar.create () in
       Exemplar.merge ~into:e p.p_exemplars;
       e);
  }

let rec union_sorted xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c < 0 then x :: union_sorted xs' ys
      else if c > 0 then y :: union_sorted xs ys'
      else x :: union_sorted xs' ys'

let merge a b =
  let latency = copy_sketch a.latency in
  Sketch.merge ~into:latency b.latency;
  let rec merge_tenants xs ys =
    match (xs, ys) with
    | [], rest | rest, [] ->
        List.map (fun (n, s) -> (n, copy_sketch s)) rest
    | (xn, xsk) :: xt, (yn, ysk) :: yt ->
        let c = compare xn yn in
        if c < 0 then (xn, copy_sketch xsk) :: merge_tenants xt ys
        else if c > 0 then (yn, copy_sketch ysk) :: merge_tenants xs yt
        else begin
          let s = copy_sketch xsk in
          Sketch.merge ~into:s ysk;
          (xn, s) :: merge_tenants xt yt
        end
  in
  let exemplars = Exemplar.create () in
  Exemplar.merge ~into:exemplars a.exemplars;
  Exemplar.merge ~into:exemplars b.exemplars;
  {
    machines = union_sorted a.machines b.machines;
    counts = Array.init Trace.n_kinds (fun i -> a.counts.(i) + b.counts.(i));
    arg_sums =
      Array.init Trace.n_kinds (fun i -> a.arg_sums.(i) + b.arg_sums.(i));
    latency;
    tenants = merge_tenants a.tenants b.tenants;
    topk = Topk.merge_summaries a.topk b.topk;
    exemplars;
  }

let merge_all = function
  | [] -> invalid_arg "Agg.merge_all: empty"
  | x :: xs -> List.fold_left merge x xs

(* {2 Reading a snapshot} *)

let machines t = t.machines
let requests t = Sketch.count t.latency
let quantile t ~p = Sketch.quantile t.latency ~p
let count t kind = t.counts.(Trace.index kind)
let arg_sum t kind = t.arg_sums.(Trace.index kind)
let tenants t = List.map fst t.tenants
let tenant_sketch t name = List.assoc_opt name t.tenants
let top ?n t = Topk.top ?n t.topk
let topk_summary t = t.topk

let exemplar_for t ~p =
  if Sketch.count t.latency = 0 then None
  else Exemplar.for_value t.exemplars (quantile t ~p)

(* {2 Fleet panel} *)

let render ?(topn = 5) t =
  let b = Buffer.create 512 in
  let q p = quantile t ~p in
  Buffer.add_string b
    (Printf.sprintf
       "fleet: %d machine(s), %d request(s), alpha %.2f%%\n"
       (List.length t.machines) (requests t) (100.0 *. Sketch.alpha));
  Buffer.add_string b
    (Printf.sprintf "  latency  p50=%-8d p95=%-8d p99=%-8d max=%d\n" (q 0.50)
       (q 0.95) (q 0.99) (Sketch.max_value t.latency));
  if t.tenants <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "  %-16s %8s %8s %8s %8s\n" "tenant" "reqs" "p50" "p95"
         "p99");
    List.iter
      (fun (name, s) ->
        Buffer.add_string b
          (Printf.sprintf "  %-16s %8d %8d %8d %8d\n" name (Sketch.count s)
             (Sketch.quantile s ~p:0.50) (Sketch.quantile s ~p:0.95)
             (Sketch.quantile s ~p:0.99)))
      t.tenants
  end;
  (match top ~n:topn t with
  | [] -> ()
  | hh ->
      Buffer.add_string b "  heavy hitters (tenant/kind):\n";
      List.iter
        (fun (r : Topk.ranked) ->
          Buffer.add_string b
            (Printf.sprintf "    %-28s %8d  true in [%d, %d]\n" r.Topk.rkey
               r.Topk.rcount r.Topk.lower r.Topk.upper))
        hh);
  (match exemplar_for t ~p:0.99 with
  | None -> ()
  | Some e ->
      Buffer.add_string b
        (Printf.sprintf
           "  p99 exemplar: trace %#x machine %s latency %d ts %d journal \
            offset %d\n"
           e.Exemplar.i_trace_id e.Exemplar.i_machine e.Exemplar.i_latency
           e.Exemplar.i_ts e.Exemplar.i_offset));
  Buffer.contents b
