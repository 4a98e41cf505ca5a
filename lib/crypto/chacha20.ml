(* ChaCha20 on plain OCaml ints. Every state word lives in [0, 2^32) inside
   a 63-bit int, so additions/rotations/xors are ordinary register arithmetic
   with one [land mask32] — no Int32 boxing on the hot path. The Int32 values
   at the API boundary are converted once per call. *)

let key_size = 32
let nonce_size = 12

let mask32 = 0xffff_ffff

let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let[@inline] le32 b off = Int32.to_int (Bytes.get_int32_le b off) land mask32
let[@inline] store_le32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let init_state ~key ~nonce ~counter =
  if Bytes.length key <> key_size then invalid_arg "Chacha20: key must be 32 bytes";
  if Bytes.length nonce <> nonce_size then invalid_arg "Chacha20: nonce must be 12 bytes";
  let st = Array.make 16 0 in
  (* "expand 32-byte k" constants *)
  st.(0) <- 0x61707865;
  st.(1) <- 0x3320646e;
  st.(2) <- 0x79622d32;
  st.(3) <- 0x6b206574;
  for i = 0 to 7 do
    st.(4 + i) <- le32 key (4 * i)
  done;
  st.(12) <- Int32.to_int counter land mask32;
  for i = 0 to 2 do
    st.(13 + i) <- le32 nonce (4 * i)
  done;
  st

(* The one block function every entry point shares: 20 rounds over the
   input state [st], fed forward and stored little-endian into the first
   64 bytes of [dst]. The sixteen working words are local refs, which the
   compiler turns into mutable variables (they never escape), so the rounds
   run in registers and stack slots rather than array cells. The eight
   quarter-rounds of each double round are written out. *)
let block_of_state st dst =
  if Array.length st <> 16 || Bytes.length dst < 64 then
    invalid_arg "Chacha20.block_of_state: need 16 words and 64 bytes";
  let x0 = ref (Array.unsafe_get st 0) and x1 = ref (Array.unsafe_get st 1) in
  let x2 = ref (Array.unsafe_get st 2) and x3 = ref (Array.unsafe_get st 3) in
  let x4 = ref (Array.unsafe_get st 4) and x5 = ref (Array.unsafe_get st 5) in
  let x6 = ref (Array.unsafe_get st 6) and x7 = ref (Array.unsafe_get st 7) in
  let x8 = ref (Array.unsafe_get st 8) and x9 = ref (Array.unsafe_get st 9) in
  let x10 = ref (Array.unsafe_get st 10) and x11 = ref (Array.unsafe_get st 11) in
  let x12 = ref (Array.unsafe_get st 12) and x13 = ref (Array.unsafe_get st 13) in
  let x14 = ref (Array.unsafe_get st 14) and x15 = ref (Array.unsafe_get st 15) in
  for _ = 1 to 10 do
    (* Column round: (0 4 8 12) (1 5 9 13) (2 6 10 14) (3 7 11 15). *)
    x0 := (!x0 + !x4) land mask32; x12 := rotl (!x12 lxor !x0) 16;
    x8 := (!x8 + !x12) land mask32; x4 := rotl (!x4 lxor !x8) 12;
    x0 := (!x0 + !x4) land mask32; x12 := rotl (!x12 lxor !x0) 8;
    x8 := (!x8 + !x12) land mask32; x4 := rotl (!x4 lxor !x8) 7;
    x1 := (!x1 + !x5) land mask32; x13 := rotl (!x13 lxor !x1) 16;
    x9 := (!x9 + !x13) land mask32; x5 := rotl (!x5 lxor !x9) 12;
    x1 := (!x1 + !x5) land mask32; x13 := rotl (!x13 lxor !x1) 8;
    x9 := (!x9 + !x13) land mask32; x5 := rotl (!x5 lxor !x9) 7;
    x2 := (!x2 + !x6) land mask32; x14 := rotl (!x14 lxor !x2) 16;
    x10 := (!x10 + !x14) land mask32; x6 := rotl (!x6 lxor !x10) 12;
    x2 := (!x2 + !x6) land mask32; x14 := rotl (!x14 lxor !x2) 8;
    x10 := (!x10 + !x14) land mask32; x6 := rotl (!x6 lxor !x10) 7;
    x3 := (!x3 + !x7) land mask32; x15 := rotl (!x15 lxor !x3) 16;
    x11 := (!x11 + !x15) land mask32; x7 := rotl (!x7 lxor !x11) 12;
    x3 := (!x3 + !x7) land mask32; x15 := rotl (!x15 lxor !x3) 8;
    x11 := (!x11 + !x15) land mask32; x7 := rotl (!x7 lxor !x11) 7;
    (* Diagonal round: (0 5 10 15) (1 6 11 12) (2 7 8 13) (3 4 9 14). *)
    x0 := (!x0 + !x5) land mask32; x15 := rotl (!x15 lxor !x0) 16;
    x10 := (!x10 + !x15) land mask32; x5 := rotl (!x5 lxor !x10) 12;
    x0 := (!x0 + !x5) land mask32; x15 := rotl (!x15 lxor !x0) 8;
    x10 := (!x10 + !x15) land mask32; x5 := rotl (!x5 lxor !x10) 7;
    x1 := (!x1 + !x6) land mask32; x12 := rotl (!x12 lxor !x1) 16;
    x11 := (!x11 + !x12) land mask32; x6 := rotl (!x6 lxor !x11) 12;
    x1 := (!x1 + !x6) land mask32; x12 := rotl (!x12 lxor !x1) 8;
    x11 := (!x11 + !x12) land mask32; x6 := rotl (!x6 lxor !x11) 7;
    x2 := (!x2 + !x7) land mask32; x13 := rotl (!x13 lxor !x2) 16;
    x8 := (!x8 + !x13) land mask32; x7 := rotl (!x7 lxor !x8) 12;
    x2 := (!x2 + !x7) land mask32; x13 := rotl (!x13 lxor !x2) 8;
    x8 := (!x8 + !x13) land mask32; x7 := rotl (!x7 lxor !x8) 7;
    x3 := (!x3 + !x4) land mask32; x14 := rotl (!x14 lxor !x3) 16;
    x9 := (!x9 + !x14) land mask32; x4 := rotl (!x4 lxor !x9) 12;
    x3 := (!x3 + !x4) land mask32; x14 := rotl (!x14 lxor !x3) 8;
    x9 := (!x9 + !x14) land mask32; x4 := rotl (!x4 lxor !x9) 7
  done;
  store_le32 dst 0 ((!x0 + Array.unsafe_get st 0) land mask32);
  store_le32 dst 4 ((!x1 + Array.unsafe_get st 1) land mask32);
  store_le32 dst 8 ((!x2 + Array.unsafe_get st 2) land mask32);
  store_le32 dst 12 ((!x3 + Array.unsafe_get st 3) land mask32);
  store_le32 dst 16 ((!x4 + Array.unsafe_get st 4) land mask32);
  store_le32 dst 20 ((!x5 + Array.unsafe_get st 5) land mask32);
  store_le32 dst 24 ((!x6 + Array.unsafe_get st 6) land mask32);
  store_le32 dst 28 ((!x7 + Array.unsafe_get st 7) land mask32);
  store_le32 dst 32 ((!x8 + Array.unsafe_get st 8) land mask32);
  store_le32 dst 36 ((!x9 + Array.unsafe_get st 9) land mask32);
  store_le32 dst 40 ((!x10 + Array.unsafe_get st 10) land mask32);
  store_le32 dst 44 ((!x11 + Array.unsafe_get st 11) land mask32);
  store_le32 dst 48 ((!x12 + Array.unsafe_get st 12) land mask32);
  store_le32 dst 52 ((!x13 + Array.unsafe_get st 13) land mask32);
  store_le32 dst 56 ((!x14 + Array.unsafe_get st 14) land mask32);
  store_le32 dst 60 ((!x15 + Array.unsafe_get st 15) land mask32)

let block_into ~key ~nonce ~counter dst =
  if Bytes.length dst < 64 then invalid_arg "Chacha20.block_into: need 64 bytes";
  block_of_state (init_state ~key ~nonce ~counter) dst

let block ~key ~nonce ~counter =
  let out = Bytes.create 64 in
  block_into ~key ~nonce ~counter out;
  out

let xor ~key ~nonce ?(counter = 1l) data =
  let len = Bytes.length data in
  let out = Bytes.copy data in
  let st = init_state ~key ~nonce ~counter in
  let ks = Bytes.create 64 in
  let counter = Int32.to_int counter land mask32 in
  let blocks = (len + 63) / 64 in
  for b = 0 to blocks - 1 do
    st.(12) <- (counter + b) land mask32;
    block_of_state st ks;
    let base = b * 64 in
    let n = len - base in
    if n >= 64 then
      (* Full block: xor the keystream in 16 aligned 32-bit words. *)
      for i = 0 to 15 do
        let off = base + (4 * i) in
        store_le32 out off (le32 out off lxor le32 ks (4 * i))
      done
    else
      for i = 0 to n - 1 do
        Bytes.set out (base + i)
          (Char.unsafe_chr
             (Char.code (Bytes.get out (base + i))
             lxor Char.code (Bytes.unsafe_get ks i)))
      done
  done;
  out
