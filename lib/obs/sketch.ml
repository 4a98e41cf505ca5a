(* Mergeable relative-error quantile sketch (DDSketch-style).

   Values v >= 1 land in log-gamma bucket i = ceil (ln v / ln gamma) with
   gamma = (1 + alpha) / (1 - alpha); bucket i is estimated by the
   midpoint 2*gamma^i / (gamma + 1), which sits within a relative error of
   alpha of every value in the bucket (plus at most 1 from integer
   rounding). Values <= 0 are counted in a dedicated zero bucket and
   estimated exactly as the observed minimum via the [min, max] clamp.

   The bucket array statically covers the full int range (~2150 buckets at
   alpha = 1%), so the record path never resizes. A [capacity] smaller
   than that bounds the number of *live* buckets: the canonical floor is
   [max 0 (hi - capacity + 1)] where [hi] is the index of the largest
   value observed, and all mass below the floor is collapsed into the
   floor bucket ("collapse lowest"). Because the floor is a function of
   the value multiset alone (via the maximum) and collapsing commutes with
   bucket-wise addition, the full state — and therefore {!serialize}'s
   output — depends only on the multiset of recorded values, never on
   record or merge order: {!merge} is exactly associative and
   commutative. *)

type t = {
  alpha : float;
  lgamma : float; (* ln gamma *)
  inv_lgamma : float;
  est_factor : float; (* 2 / (gamma + 1): est(i) = gamma^i * est_factor *)
  max_index : int; (* index of max_int: highest usable bucket *)
  capacity : int; (* max live buckets before collapse-lowest *)
  buckets : int array; (* length max_index + 1, allocated once *)
  mutable zeros : int; (* values <= 0 *)
  mutable floor : int; (* lowest live index; all lower mass lives here *)
  mutable hi : int; (* index of the largest positive value; -1 if none *)
  mutable count : int;
  mutable sum : int;
  mutable min_v : int; (* max_int sentinel while empty *)
  mutable max_v : int; (* min_int sentinel while empty *)
}

let default_alpha = 0.01

let index_for ~inv_lgamma v =
  (* ceil (ln v / ln gamma); v = 1 -> 0. Single float expression so the
     native compiler keeps every intermediate unboxed (record-path is
     allocation-free). *)
  int_of_float (Float.ceil (Float.log (float_of_int v) *. inv_lgamma))

let create ?(alpha = default_alpha) ?capacity () =
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg "Sketch.create: alpha must be in (0, 1)";
  let gamma = (1.0 +. alpha) /. (1.0 -. alpha) in
  let lgamma = Float.log gamma in
  let inv_lgamma = 1.0 /. lgamma in
  let max_index = index_for ~inv_lgamma max_int in
  let capacity =
    match capacity with
    | None -> max_index + 1 (* no collapse by default *)
    | Some c ->
        if c < 1 then invalid_arg "Sketch.create: capacity must be >= 1";
        c
  in
  {
    alpha;
    lgamma;
    inv_lgamma;
    est_factor = 2.0 /. (gamma +. 1.0);
    max_index;
    capacity;
    buckets = Array.make (max_index + 1) 0;
    zeros = 0;
    floor = 0;
    hi = -1;
    count = 0;
    sum = 0;
    min_v = max_int;
    max_v = min_int;
  }

let alpha t = t.alpha
let capacity t = t.capacity
let count t = t.count
let sum t = t.sum
let zeros t = t.zeros
let bucket_floor t = t.floor
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = if t.count = 0 then 0 else t.max_v

let mean t =
  if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

let index_of t v =
  if v <= 1 then 0
  else
    let i = index_for ~inv_lgamma:t.inv_lgamma v in
    if i > t.max_index then t.max_index else if i < 0 then 0 else i

(* Raise the floor to [nf], folding everything below it into bucket [nf].
   Cold path: runs only when a new maximum pushes past [capacity]. *)
let collapse_to t nf =
  let b = t.buckets in
  for i = t.floor to nf - 1 do
    b.(nf) <- b.(nf) + b.(i);
    b.(i) <- 0
  done;
  t.floor <- nf

let record t v =
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v;
  if v <= 0 then t.zeros <- t.zeros + 1
  else begin
    let i = index_of t v in
    if i > t.hi then begin
      t.hi <- i;
      let nf = i - t.capacity + 1 in
      if nf > t.floor then collapse_to t nf
    end;
    let bkt = if i < t.floor then t.floor else i in
    t.buckets.(bkt) <- t.buckets.(bkt) + 1
  end

(* Midpoint estimate for bucket [i], within alpha relative error of every
   value the bucket covers (before rounding to int). *)
let estimate t i =
  let e = Float.exp (float_of_int i *. t.lgamma) *. t.est_factor in
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
        let cum = ref t.zeros and b = ref t.floor and res = ref t.max_v in
        (try
           while !b <= t.hi do
             let c = t.buckets.(!b) in
             if c > 0 then begin
               cum := !cum + c;
               if float_of_int !cum >= rank then begin
                 res := clamp (estimate t !b);
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

let mergeable a b =
  a.alpha = b.alpha && a.capacity = b.capacity

let merge ~into src =
  if into == src then invalid_arg "Sketch.merge: cannot merge into itself";
  if not (mergeable into src) then
    invalid_arg "Sketch.merge: alpha/capacity mismatch";
  into.count <- into.count + src.count;
  into.sum <- into.sum + src.sum;
  into.zeros <- into.zeros + src.zeros;
  if src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v;
  if src.hi > into.hi then into.hi <- src.hi;
  let nf = into.hi - into.capacity + 1 in
  if nf > into.floor then collapse_to into nf;
  if src.hi >= 0 then
    for i = src.floor to src.hi do
      let c = src.buckets.(i) in
      if c > 0 then begin
        let bkt = if i < into.floor then into.floor else i in
        into.buckets.(bkt) <- into.buckets.(bkt) + c
      end
    done

(* Non-empty live buckets as [(index, count)], ascending. *)
let buckets t =
  let out = ref [] in
  if t.hi >= 0 then
    for i = t.hi downto t.floor do
      if t.buckets.(i) > 0 then out := (i, t.buckets.(i)) :: !out
    done;
  !out

(* {2 Compact binary wire format}

   "ESK1" magic, alpha as 8 big-endian IEEE-754 bytes, then LEB128
   varints (zigzag for signed fields):

     capacity, count, sum~, min~, max~, zeros, floor, hi+1,
     n_live, (index_delta, count) * n_live

   Live buckets are emitted in ascending index order with the index
   delta-coded from the previous one (the first is delta-coded from the
   floor), so the encoding of a given state is unique: byte equality of
   [serialize] is state equality. *)

let put_varint = Sketch_wire.put_varint
let put_signed = Sketch_wire.put_signed

let serialize t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "ESK1";
  Buffer.add_int64_be buf (Int64.bits_of_float t.alpha);
  put_varint buf t.capacity;
  put_varint buf t.count;
  put_signed buf t.sum;
  put_signed buf (if t.count = 0 then 0 else t.min_v);
  put_signed buf (if t.count = 0 then 0 else t.max_v);
  put_varint buf t.zeros;
  put_varint buf t.floor;
  put_varint buf (t.hi + 1);
  let live = buckets t in
  put_varint buf (List.length live);
  let prev = ref t.floor in
  List.iter
    (fun (i, c) ->
      put_varint buf (i - !prev);
      prev := i;
      put_varint buf c)
    live;
  Buffer.contents buf

exception Bad = Sketch_wire.Bad

let get_varint = Sketch_wire.get_varint
let get_signed = Sketch_wire.get_signed

let deserialize s =
  try
    if String.length s < 12 || String.sub s 0 4 <> "ESK1" then
      raise (Bad "sketch: bad magic");
    let alpha = Int64.float_of_bits (String.get_int64_be s 4) in
    if not (alpha > 0.0 && alpha < 1.0) then
      raise (Bad "sketch: alpha out of range");
    let pos = ref 12 in
    let capacity = get_varint s pos in
    if capacity < 1 then raise (Bad "sketch: capacity must be >= 1");
    let t = create ~alpha ~capacity () in
    t.count <- get_varint s pos;
    t.sum <- get_signed s pos;
    let mn = get_signed s pos and mx = get_signed s pos in
    if t.count > 0 then begin
      t.min_v <- mn;
      t.max_v <- mx
    end;
    t.zeros <- get_varint s pos;
    t.floor <- get_varint s pos;
    t.hi <- get_varint s pos - 1;
    if t.hi > t.max_index || t.floor > t.max_index then
      raise (Bad "sketch: bucket index out of range");
    let n_live = get_varint s pos in
    let prev = ref t.floor in
    let total = ref t.zeros in
    for _ = 1 to n_live do
      let i = !prev + get_varint s pos in
      let c = get_varint s pos in
      if i > t.hi || i < !prev then raise (Bad "sketch: live bucket out of range");
      if c = 0 then raise (Bad "sketch: empty live bucket");
      t.buckets.(i) <- c;
      total := !total + c;
      prev := i
    done;
    if !pos <> String.length s then raise (Bad "sketch: trailing bytes");
    if !total <> t.count then raise (Bad "sketch: count mismatch");
    Result.Ok t
  with Bad e -> Result.Error e

(* {2 Per-kind family, attachable as an emitter sink} *)

module Family = struct
  type sketch = t

  type nonrec t = { sketches : t array (* kind index -> sketch *) }

  let create ?(alpha = default_alpha) ?capacity () =
    {
      sketches =
        Array.init Trace.n_kinds (fun _ -> create ~alpha ?capacity ());
    }

  let sink f kind ~ts:_ ~arg = record f.sketches.(Trace.index kind) arg

  let attach emitter f =
    Emitter.attach emitter (sink f);
    f

  let get f kind = f.sketches.(Trace.index kind)

  let merge ~into src =
    Array.iteri
      (fun i s -> merge ~into:into.sketches.(i) s)
      src.sketches
end
