(* SHA-256 per FIPS 180-4. All word arithmetic is on plain ints holding
   values in [0, 2^32): one [land mask32] after each add keeps the math
   exact while every operation stays unboxed register arithmetic. The
   message schedule is loaded 8 bytes at a time ([Bytes.get_int64_be]) and
   lives in a per-context scratch array reused across blocks, so compressing
   a block allocates nothing. *)

let digest_size = 32
let block_size = 64

let mask32 = 0xffff_ffff

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  state : int array;          (* 8 words H0..H7, each in [0, 2^32) *)
  w : int array;              (* 64-word message schedule, reused per block *)
  buf : bytes;                (* partial block *)
  mutable buf_len : int;      (* bytes pending in [buf] *)
  mutable total : int;        (* total message bytes absorbed *)
  mutable finalized : bool;
}

let init () =
  {
    state =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    w = Array.make 64 0;
    buf = Bytes.create block_size;
    buf_len = 0;
    total = 0;
    finalized = false;
  }

let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

(* Compress one 64-byte block located at [off] in [b] into [ctx.state]. *)
let compress ctx b off =
  let w = ctx.w in
  (* Wide loads: two schedule words per 64-bit read. *)
  for i = 0 to 7 do
    let v = Bytes.get_int64_be b (off + (i * 8)) in
    Array.unsafe_set w (2 * i) (Int64.to_int (Int64.shift_right_logical v 32) land mask32);
    Array.unsafe_set w ((2 * i) + 1) (Int64.to_int v land mask32)
  done;
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) and w2 = Array.unsafe_get w (i - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3)
    and s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask32)
  done;
  let st = ctx.state in
  (* The eight working variables travel as loop parameters, so the whole
     round function runs in registers with no ref cells. *)
  let rec round i a b' c d e f g h =
    if i = 64 then begin
      st.(0) <- (st.(0) + a) land mask32;
      st.(1) <- (st.(1) + b') land mask32;
      st.(2) <- (st.(2) + c) land mask32;
      st.(3) <- (st.(3) + d) land mask32;
      st.(4) <- (st.(4) + e) land mask32;
      st.(5) <- (st.(5) + f) land mask32;
      st.(6) <- (st.(6) + g) land mask32;
      st.(7) <- (st.(7) + h) land mask32
    end
    else begin
      let s1 = rotr e 6 lxor rotr e 11 lxor rotr e 25 in
      let ch = (e land f) lxor (lnot e land g land mask32) in
      let temp1 =
        (h + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i) land mask32
      in
      let s0 = rotr a 2 lxor rotr a 13 lxor rotr a 22 in
      let maj = (a land b') lxor (a land c) lxor (b' land c) in
      let temp2 = (s0 + maj) land mask32 in
      round (i + 1) ((temp1 + temp2) land mask32) a b' c ((d + temp1) land mask32) e f g
    end
  in
  round 0 st.(0) st.(1) st.(2) st.(3) st.(4) st.(5) st.(6) st.(7)

let feed ctx b =
  if ctx.finalized then invalid_arg "Sha256.feed: context already finalized";
  let len = Bytes.length b in
  ctx.total <- ctx.total + len;
  let pos = ref 0 and remaining = ref len in
  (* Fill any partial block first. *)
  if ctx.buf_len > 0 then begin
    let need = block_size - ctx.buf_len in
    let take = min need !remaining in
    Bytes.blit b !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = block_size then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= block_size do
    compress ctx b !pos;
    pos := !pos + block_size;
    remaining := !remaining - block_size
  done;
  if !remaining > 0 then begin
    Bytes.blit b !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let feed_string ctx s = feed ctx (Bytes.unsafe_of_string s)

let digest ctx =
  if ctx.finalized then invalid_arg "Sha256.digest: context already finalized";
  ctx.finalized <- true;
  let bit_len = ctx.total * 8 in
  (* Padding: 0x80, zeros, then the 64-bit big-endian length. *)
  let pad_len =
    let rem = (ctx.buf_len + 1 + 8) mod block_size in
    if rem = 0 then 1 else 1 + (block_size - rem)
  in
  let tail = Bytes.make (pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  for i = 0 to 7 do
    let shift = 8 * (7 - i) in
    Bytes.set tail (pad_len + i) (Char.chr ((bit_len lsr shift) land 0xff))
  done;
  (* Absorb the tail without recounting it in [total]. *)
  let pos = ref 0 and remaining = ref (Bytes.length tail) in
  if ctx.buf_len > 0 then begin
    let need = block_size - ctx.buf_len in
    let take = min need !remaining in
    Bytes.blit tail 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    remaining := !remaining - take;
    if ctx.buf_len = block_size then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= block_size do
    compress ctx tail !pos;
    pos := !pos + block_size;
    remaining := !remaining - block_size
  done;
  assert (!remaining = 0 && ctx.buf_len = 0);
  let out = Bytes.create digest_size in
  for i = 0 to 7 do
    Bytes.set_int32_be out (i * 4) (Int32.of_int ctx.state.(i))
  done;
  out

let digest_bytes b =
  let ctx = init () in
  feed ctx b;
  digest ctx

let digest_string s = digest_bytes (Bytes.of_string s)

let hex b =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf
