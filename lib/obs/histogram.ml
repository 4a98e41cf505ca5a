(* Per-kind log2-bucketed histogram of event arguments. Bucket [b] holds
   values [v] with [bits v = b] where [bits 0 = 0]; i.e. bucket 0 is {0},
   bucket 1 is {1}, bucket 2 is {2,3}, bucket 3 is {4..7}, ... Useful for
   kinds whose arg is a latency (EMC round trips, tdcalls). The one
   single-distribution type ([dist]) and rank-interpolation walk
   ([row_percentile]) here also back {!Query} cells, {!Request} latency and
   {!Window}'s merged view, so every log2 percentile agrees. *)

let n_buckets = 63

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    !b
  end

let bucket_lo b = if b <= 1 then b else 1 lsl (b - 1)
let bucket_hi b = if b = 0 then 0 else (1 lsl b) - 1

(* Percentile estimate from one row of log2 buckets holding [n] samples
   with observed extrema [vmin, vmax]: walk to the bucket holding the rank,
   then interpolate linearly inside its [lo, hi] range, clamping the
   estimate to the observed [min, max]. Exact when a bucket spans a single
   value (buckets 0 and 1) or holds a single distinct sample, within a
   factor-of-two band otherwise — plenty for latency reporting. The clamps
   pin the edges: an empty distribution is 0, p <= 0 is the observed
   minimum, p >= 1 the observed maximum, and a single-sample distribution
   returns that sample at every p. *)
let row_percentile row ~n ~vmin ~vmax ~p =
  if n = 0 then 0
  else begin
    let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
    if p <= 0.0 then vmin
    else begin
      let rank = p *. float_of_int n in
      let rec go b cum =
        if b >= n_buckets then vmax
        else begin
          let c = row.(b) in
          if c > 0 && float_of_int (cum + c) >= rank then begin
            let lo = bucket_lo b and hi = bucket_hi b in
            let within = (rank -. float_of_int cum) /. float_of_int c in
            let v = float_of_int lo +. (within *. float_of_int (hi - lo)) in
            min (max (int_of_float (Float.round v)) vmin) vmax
          end
          else go (b + 1) (cum + c)
        end
      in
      go 0 0
    end
  end

type dist = {
  mutable count : int;
  mutable sum : int;
  mutable vmin : int; (* max_int sentinel while empty *)
  mutable vmax : int;
  row : int array;    (* bucket -> count *)
}

let dist () =
  { count = 0; sum = 0; vmin = max_int; vmax = 0; row = Array.make n_buckets 0 }

let observe d v =
  let b = bucket_of v in
  d.row.(b) <- d.row.(b) + 1;
  d.count <- d.count + 1;
  d.sum <- d.sum + v;
  if v < d.vmin then d.vmin <- v;
  if v > d.vmax then d.vmax <- v

let dist_min d = if d.count = 0 then 0 else d.vmin

let dist_mean d =
  if d.count = 0 then 0.0 else float_of_int d.sum /. float_of_int d.count

let dist_percentile d ~p =
  row_percentile d.row ~n:d.count ~vmin:d.vmin ~vmax:d.vmax ~p

type t = dist array (* kind index -> distribution *)

let create () = Array.init Trace.n_kinds (fun _ -> dist ())
let get t kind = t.(Trace.index kind)
let sink t kind ~ts:_ ~arg = observe t.(Trace.index kind) arg

let attach emitter t =
  Emitter.attach emitter (sink t);
  t

let count t kind = (get t kind).count
let sum t kind = (get t kind).sum
let max_value t kind = (get t kind).vmax
let min_value t kind = dist_min (get t kind)
let mean t kind = dist_mean (get t kind)

let buckets t kind =
  let row = (get t kind).row in
  let out = ref [] in
  for b = n_buckets - 1 downto 0 do
    if row.(b) > 0 then out := (bucket_lo b, bucket_hi b, row.(b)) :: !out
  done;
  !out

let bucket_count t kind ~value = (get t kind).row.(bucket_of value)
let percentile t kind ~p = dist_percentile (get t kind) ~p

let pp fmt (t, kind) =
  let bs = buckets t kind in
  let widest = List.fold_left (fun acc (_, _, c) -> max acc c) 1 bs in
  Fmt.pf fmt "%s: n=%d mean=%.0f max=%d p50=%d p95=%d p99=%d@."
    (Trace.name kind) (count t kind) (mean t kind) (max_value t kind)
    (percentile t kind ~p:0.50) (percentile t kind ~p:0.95)
    (percentile t kind ~p:0.99);
  List.iter
    (fun (lo, hi, c) ->
      let bar = String.make (max 1 (c * 40 / widest)) '#' in
      Fmt.pf fmt "  [%8d, %8d] %8d %s@." lo hi c bar)
    bs
