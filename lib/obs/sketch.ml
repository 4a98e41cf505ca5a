(* Relative-error quantile sketch (DDSketch-style) at a fixed
   accuracy of alpha = 1%.

   Values v >= 1 land in log-gamma bucket i = ceil (ln v / ln gamma) with
   gamma = (1 + alpha) / (1 - alpha); bucket i is estimated by the
   midpoint 2*gamma^i / (gamma + 1), which sits within a relative error of
   alpha of every value in the bucket (plus at most 1 from integer
   rounding). Values <= 0 are counted in a dedicated zero bucket and
   estimated exactly as the observed minimum via the [min, max] clamp.

   The bucket array statically covers the full int range (~2150 buckets),
   so the record path never resizes and no bucket is ever folded into
   another. The state is therefore bucket-wise addition over the multiset
   of recorded values: it never depends on record order, and two sketches
   over the same multiset are structurally equal. *)

type t = {
  buckets : int array; (* length max_index + 1, allocated once *)
  mutable zeros : int; (* values <= 0 *)
  mutable hi : int; (* index of the largest positive value; -1 if none *)
  mutable count : int;
  mutable min_v : int; (* max_int sentinel while empty *)
  mutable max_v : int; (* min_int sentinel while empty *)
}

let alpha = 0.01
let gamma = (1.0 +. alpha) /. (1.0 -. alpha)
let lgamma = Float.log gamma
let inv_lgamma = 1.0 /. lgamma
let est_factor = 2.0 /. (gamma +. 1.0) (* est(i) = gamma^i * est_factor *)

let index_for v =
  (* ceil (ln v / ln gamma); v = 1 -> 0. Single float expression so the
     native compiler keeps every intermediate unboxed (record-path is
     allocation-free). *)
  int_of_float (Float.ceil (Float.log (float_of_int v) *. inv_lgamma))

let max_index = index_for max_int (* highest usable bucket *)

let create () =
  {
    buckets = Array.make (max_index + 1) 0;
    zeros = 0;
    hi = -1;
    count = 0;
    min_v = max_int;
    max_v = min_int;
  }

let count t = t.count
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = if t.count = 0 then 0 else t.max_v

let index_of v =
  if v <= 1 then 0
  else
    let i = index_for v in
    if i > max_index then max_index else if i < 0 then 0 else i

let record t v =
  t.count <- t.count + 1;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v;
  if v <= 0 then t.zeros <- t.zeros + 1
  else begin
    let i = index_of v in
    if i > t.hi then t.hi <- i;
    t.buckets.(i) <- t.buckets.(i) + 1
  end

(* Midpoint estimate for bucket [i], within alpha relative error of every
   value the bucket covers (before rounding to int). *)
let estimate i =
  let e = Float.exp (float_of_int i *. lgamma) *. est_factor in
  if e >= float_of_int max_int then max_int
  else int_of_float (Float.round e)

let quantile t ~p =
  if t.count = 0 then 0
  else begin
    let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
    if p <= 0.0 then t.min_v
    else if p >= 1.0 then t.max_v
    else begin
      let rank = p *. float_of_int t.count in
      let clamp v = min (max v t.min_v) t.max_v in
      if float_of_int t.zeros >= rank then clamp 0
      else begin
        let cum = ref t.zeros and b = ref 0 and res = ref t.max_v in
        (try
           while !b <= t.hi do
             let c = t.buckets.(!b) in
             if c > 0 then begin
               cum := !cum + c;
               if float_of_int !cum >= rank then begin
                 res := clamp (estimate !b);
                 raise_notrace Exit
               end
             end;
             incr b
           done
         with Exit -> ());
        !res
      end
    end
  end

(* {2 Per-kind family, attachable as an emitter sink} *)

module Family = struct
  type sketch = t

  type nonrec t = { sketches : t array (* kind index -> sketch *) }

  let create () = { sketches = Array.init Trace.n_kinds (fun _ -> create ()) }
  let sink f kind ~ts:_ ~arg = record f.sketches.(Trace.index kind) arg

  let attach emitter f =
    Emitter.attach emitter (sink f);
    f

  let get f kind = f.sketches.(Trace.index kind)
end
