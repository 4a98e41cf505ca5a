(* A view over emitters' built-in tallies. Each source remembers its
   emitter's counts at attach (or the last reset); reads subtract that
   base, so a counter counts from the moment it attaches. *)
type source = {
  emitter : Emitter.t;
  base_counts : int array;
  base_sums : int array;
}

type t = { mutable sources : source list }

let kinds = Array.of_list Trace.all

let create () = { sources = [] }

let rebase s =
  Array.iteri
    (fun i k ->
      s.base_counts.(i) <- Emitter.count s.emitter k;
      s.base_sums.(i) <- Emitter.arg_sum s.emitter k)
    kinds

let attach emitter t =
  let s =
    {
      emitter;
      base_counts = Array.make Trace.n_kinds 0;
      base_sums = Array.make Trace.n_kinds 0;
    }
  in
  rebase s;
  t.sources <- s :: t.sources;
  t

let count t kind =
  let i = Trace.index kind in
  List.fold_left
    (fun acc s -> acc + Emitter.count s.emitter kind - s.base_counts.(i))
    0 t.sources

let arg_sum t kind =
  let i = Trace.index kind in
  List.fold_left
    (fun acc s -> acc + Emitter.arg_sum s.emitter kind - s.base_sums.(i))
    0 t.sources

let total t = Array.fold_left (fun acc k -> acc + count t k) 0 kinds

let reset t = List.iter rebase t.sources
