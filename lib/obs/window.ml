(* Time-bucketed sliding-window sink, keyed to the VIRTUAL clock. A fixed
   ring of [nbuckets] buckets, each [width] virtual cycles wide, holds
   per-kind event counts and arg sums; the latency kinds ([hist_kinds])
   also keep a per-bucket log2 histogram (and min/max) so percentiles over the
   last N windows come from a merge-on-read walk. The ring rotates when an
   event's timestamp crosses the current bucket's end — i.e. rotation is
   driven by the virtual clock the events already carry, never by wall
   time, and recording never advances that clock.

   The record path is allocation-free: every bucket row lives in flat,
   preallocated int arrays indexed by [slot * n_kinds + kind]. Read-side
   queries may allocate (they run off the hot path). *)

type t = {
  width : int;            (* virtual cycles per bucket *)
  nbuckets : int;         (* ring size *)
  mutable cur : int;      (* ring slot of the current bucket *)
  mutable cur_start : int;(* ts at which the current bucket began *)
  counts : int array;     (* [slot * n_kinds + kind] -> events *)
  sums : int array;       (* [slot * n_kinds + kind] -> arg sum *)
  totals : int array;     (* lifetime per-kind event count *)
  hist_slot : int array;  (* kind -> histogram slot, or -1 if untracked *)
  n_hist : int;
  hist : int array;       (* [(slot * n_hist + h) * Histogram.n_buckets + b] *)
  hist_min : int array;   (* [slot * n_hist + h]; max_int when empty *)
  hist_max : int array;   (* [slot * n_hist + h] *)
  scratch : int array;    (* merge-on-read histogram row *)
}

let hist_kinds = [| Trace.Emc_entry; Trace.Req_end; Trace.Tdcall; Trace.Vmcall |]

let create ~width ~buckets () =
  if width <= 0 then invalid_arg "Window.create: width must be positive";
  if buckets <= 0 then invalid_arg "Window.create: buckets must be positive";
  let n_hist = Array.length hist_kinds in
  let hist_slot = Array.make Trace.n_kinds (-1) in
  Array.iteri (fun h k -> hist_slot.(Trace.index k) <- h) hist_kinds;
  {
    width;
    nbuckets = buckets;
    cur = 0;
    cur_start = 0;
    counts = Array.make (buckets * Trace.n_kinds) 0;
    sums = Array.make (buckets * Trace.n_kinds) 0;
    totals = Array.make Trace.n_kinds 0;
    hist_slot;
    n_hist;
    hist = Array.make (buckets * n_hist * Histogram.n_buckets) 0;
    hist_min = Array.make (buckets * n_hist) max_int;
    hist_max = Array.make (buckets * n_hist) 0;
    scratch = Array.make Histogram.n_buckets 0;
  }

let clear_slot t s =
  Array.fill t.counts (s * Trace.n_kinds) Trace.n_kinds 0;
  Array.fill t.sums (s * Trace.n_kinds) Trace.n_kinds 0;
  if t.n_hist > 0 then begin
    Array.fill t.hist (s * t.n_hist * Histogram.n_buckets)
      (t.n_hist * Histogram.n_buckets) 0;
    Array.fill t.hist_min (s * t.n_hist) t.n_hist max_int;
    Array.fill t.hist_max (s * t.n_hist) t.n_hist 0
  end

(* Rotate the ring so [now] falls inside the current bucket. A gap larger
   than the whole ring clears every bucket in one pass and jumps the start
   forward (keeping bucket alignment), so a long idle period costs
   O(nbuckets), not O(gap / width). *)
let advance t ~now =
  if now >= t.cur_start + t.width then begin
    let k = (now - t.cur_start) / t.width in
    if k >= t.nbuckets then begin
      for s = 0 to t.nbuckets - 1 do
        clear_slot t s
      done;
      t.cur_start <- t.cur_start + (k * t.width)
    end
    else
      for _ = 1 to k do
        t.cur <- (if t.cur + 1 = t.nbuckets then 0 else t.cur + 1);
        clear_slot t t.cur;
        t.cur_start <- t.cur_start + t.width
      done
  end

let record t kind ~ts ~arg =
  advance t ~now:ts;
  let i = Trace.index kind in
  let base = (t.cur * Trace.n_kinds) + i in
  t.counts.(base) <- t.counts.(base) + 1;
  t.sums.(base) <- t.sums.(base) + arg;
  t.totals.(i) <- t.totals.(i) + 1;
  let h = t.hist_slot.(i) in
  if h >= 0 then begin
    let row = (t.cur * t.n_hist) + h in
    let b = (row * Histogram.n_buckets) + Histogram.bucket_of arg in
    t.hist.(b) <- t.hist.(b) + 1;
    if arg < t.hist_min.(row) then t.hist_min.(row) <- arg;
    if arg > t.hist_max.(row) then t.hist_max.(row) <- arg
  end

let sink t kind ~ts ~arg = record t kind ~ts ~arg
let attach emitter t =
  Emitter.attach emitter (sink t);
  t

(* Read side: fold over the last [windows] buckets, current included. *)

let fold_last t ?windows f init =
  let n =
    match windows with
    | None -> t.nbuckets
    | Some n when n <= 0 -> invalid_arg "Window: windows must be positive"
    | Some n -> min n t.nbuckets
  in
  let acc = ref init in
  for back = 0 to n - 1 do
    let s = (t.cur - back + t.nbuckets) mod t.nbuckets in
    acc := f !acc s
  done;
  !acc

let count t ?windows kind =
  let i = Trace.index kind in
  fold_last t ?windows (fun acc s -> acc + t.counts.((s * Trace.n_kinds) + i)) 0

let arg_sum t ?windows kind =
  let i = Trace.index kind in
  fold_last t ?windows (fun acc s -> acc + t.sums.((s * Trace.n_kinds) + i)) 0

let total_count t kind = t.totals.(Trace.index kind)

(* Merge-on-read percentile over the last N windows: the slots' bucket rows
   merge into [scratch], then {!Histogram.row_percentile} walks it with the
   merged span's observed [min, max]. *)
let percentile t ?windows kind ~p =
  let i = Trace.index kind in
  let h = t.hist_slot.(i) in
  if h < 0 then
    invalid_arg
      (Printf.sprintf "Window.percentile: kind %s has no histogram"
         (Trace.name kind));
  Array.fill t.scratch 0 Histogram.n_buckets 0;
  let n, vmin, vmax =
    fold_last t ?windows
      (fun (n, vmin, vmax) s ->
        let row = (s * t.n_hist) + h in
        let base = row * Histogram.n_buckets in
        let cnt = ref 0 in
        for b = 0 to Histogram.n_buckets - 1 do
          let c = t.hist.(base + b) in
          if c > 0 then begin
            t.scratch.(b) <- t.scratch.(b) + c;
            cnt := !cnt + c
          end
        done;
        if !cnt = 0 then (n, vmin, vmax)
        else (n + !cnt, min vmin t.hist_min.(row), max vmax t.hist_max.(row)))
      (0, max_int, 0)
  in
  Histogram.row_percentile t.scratch ~n ~vmin ~vmax ~p

(* Samples strictly above [threshold], from the log2 buckets: counts every
   bucket whose low bound already exceeds the threshold, so the answer is
   conservative (samples sharing the threshold's own bucket are not
   counted) and at worst a factor-of-two band off — the same fidelity the
   histogram itself has. *)
let over t ?windows kind ~threshold =
  let i = Trace.index kind in
  let h = t.hist_slot.(i) in
  if h < 0 then
    invalid_arg
      (Printf.sprintf "Window.over: kind %s has no histogram"
         (Trace.name kind));
  fold_last t ?windows
    (fun acc s ->
      let base = ((s * t.n_hist) + h) * Histogram.n_buckets in
      let acc = ref acc in
      for b = 0 to Histogram.n_buckets - 1 do
        if Histogram.bucket_lo b > threshold then
          acc := !acc + t.hist.(base + b)
      done;
      !acc)
    0
