(* The generator's stream is ChaCha20 block [n] under the hashed seed, with
   [n] spread over the block input's counter and nonce words: word 12 (the
   ChaCha counter) stays 0, words 13–14 hold [n]'s low and high 32 bits,
   word 15 stays 0. [state] keeps that keyed input between refills, so a
   refill rewrites two words and runs the block straight into [pool]. *)
type t = {
  mutable key : bytes;       (* SHA-256 of the seed, rehashed by [reseed] *)
  mutable state : int array; (* keyed 16-word ChaCha20 input, rebuilt by [reseed] *)
  mutable counter : int;     (* next block index *)
  pool : bytes;              (* one keystream block, refilled in place *)
  mutable pool_off : int;    (* consumed prefix; pool_size forces a refill *)
}

let pool_size = 64

(* Only read: the nonce words of [state] are rewritten per refill. *)
let zero_nonce = Bytes.make Chacha20.nonce_size '\000'

let keyed key = Chacha20.init_state ~key ~nonce:zero_nonce ~counter:0l

let create ~seed =
  let key = Sha256.digest_string seed in
  { key; state = keyed key; counter = 0; pool = Bytes.create pool_size; pool_off = pool_size }

let refill t =
  let n = t.counter in
  Array.unsafe_set t.state 13 (n land 0xffff_ffff);
  Array.unsafe_set t.state 14 ((n lsr 32) land 0xffff_ffff);
  t.counter <- n + 1;
  Chacha20.block_of_state t.state t.pool;
  t.pool_off <- 0

let bytes t n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if t.pool_off >= pool_size then refill t;
    let avail = pool_size - t.pool_off in
    let take = min avail (n - !filled) in
    Bytes.blit t.pool t.pool_off out !filled take;
    t.pool_off <- t.pool_off + take;
    filled := !filled + take
  done;
  out

(* Same byte stream as [bytes t 8], folded directly off the pool so the
   per-draw 8-byte buffer (and its copy) never exists. *)
let[@inline] next_byte t =
  if t.pool_off >= pool_size then refill t;
  let c = Char.code (Bytes.unsafe_get t.pool t.pool_off) in
  t.pool_off <- t.pool_off + 1;
  c

(* Eight stream bytes folded big-endian then shifted right once: 63 uniform
   bits. The value can reach 2^63 - 1, one bit more than a native int holds,
   so the first seven bytes build a 56-bit plain-int prefix and only the
   final splice happens on Int64 — an unboxed straight-line chain whose
   boxes the compiler eliminates. *)
let[@inline] draw64 t =
  let b0 = next_byte t in
  let b1 = next_byte t in
  let b2 = next_byte t in
  let b3 = next_byte t in
  let b4 = next_byte t in
  let b5 = next_byte t in
  let b6 = next_byte t in
  let b7 = next_byte t in
  let hi =
    (b0 lsl 48) lor (b1 lsl 40) lor (b2 lsl 32) lor (b3 lsl 24)
    lor (b4 lsl 16) lor (b5 lsl 8) lor b6
  in
  Int64.logor (Int64.shift_left (Int64.of_int hi) 7) (Int64.of_int (b7 lsr 1))

let[@inline] int64 t = draw64 t

let int t bound =
  if bound <= 0 then invalid_arg "Drbg.int: bound must be positive";
  (* Rejection sampling over the largest multiple of [bound] below 2^63. A
     loop over a local, not a recursive closure, so a draw allocates
     nothing. *)
  let b = Int64.of_int bound in
  let limit = Int64.mul (Int64.div Int64.max_int b) b in
  let v = ref (draw64 t) in
  while (!v : int64) >= limit do
    v := draw64 t
  done;
  Int64.to_int (Int64.rem !v b)

(* Inlined at the call site, so a caller comparing the draw against a
   threshold never boxes the float. *)
let[@inline] float t =
  (* [draw64] yields 63 uniform bits; divide by 2^63 for [0, 1). *)
  Int64.to_float (draw64 t) /. 9.223372036854775808e18

let reseed t entropy =
  let ctx = Sha256.init () in
  Sha256.feed ctx t.key;
  Sha256.feed_string ctx entropy;
  t.key <- Sha256.digest ctx;
  t.state <- keyed t.key;
  t.pool_off <- pool_size
