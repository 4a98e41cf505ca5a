(* Known-answer and property tests for the from-scratch crypto substrate. *)

open Crypto

let hex_of = Sha256.hex

let bytes_of_hex s =
  let s = String.concat "" (String.split_on_char ' ' s) in
  let n = String.length s / 2 in
  let out = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set out i (Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
  done;
  out

let check_hex msg expected actual = Alcotest.(check string) msg expected (hex_of actual)

(* ------------------------------------------------------------------ *)
(* SHA-256                                                             *)
(* ------------------------------------------------------------------ *)

let test_sha256_empty () =
  check_hex "sha256(\"\")"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_string "")

let test_sha256_abc () =
  check_hex "sha256(abc)"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_string "abc")

let test_sha256_two_blocks () =
  check_hex "sha256(448-bit NIST vector)"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_million_a () =
  let ctx = Sha256.init () in
  let chunk = Bytes.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.feed ctx chunk
  done;
  check_hex "sha256(a^1e6)"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest ctx)

let test_sha256_incremental_split () =
  (* Feeding in arbitrary chunk sizes must match the one-shot digest. *)
  let msg = String.init 300 (fun i -> Char.chr (i mod 256)) in
  let oneshot = Sha256.digest_string msg in
  List.iter
    (fun sizes ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      List.iter
        (fun sz ->
          let take = min sz (String.length msg - !pos) in
          Sha256.feed_string ctx (String.sub msg !pos take);
          pos := !pos + take)
        sizes;
      Sha256.feed_string ctx (String.sub msg !pos (String.length msg - !pos));
      Alcotest.(check string) "split digest" (hex_of oneshot) (hex_of (Sha256.digest ctx)))
    [ [ 1; 2; 3; 4; 5 ]; [ 63; 1; 64; 65 ]; [ 128; 172 ]; [ 299 ] ]

let test_sha256_reuse_rejected () =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx "x";
  ignore (Sha256.digest ctx);
  Alcotest.check_raises "reuse after digest" (Invalid_argument "Sha256.feed: context already finalized")
    (fun () -> Sha256.feed_string ctx "y")

let prop_sha256_chunking =
  QCheck.Test.make ~name:"sha256 chunked = oneshot" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 500)) (small_int_corners ()))
    (fun (msg, cut) ->
      let cut = if String.length msg = 0 then 0 else cut mod (String.length msg + 1) in
      let ctx = Sha256.init () in
      Sha256.feed_string ctx (String.sub msg 0 cut);
      Sha256.feed_string ctx (String.sub msg cut (String.length msg - cut));
      Bytes.equal (Sha256.digest ctx) (Sha256.digest_string msg))

(* ------------------------------------------------------------------ *)
(* HMAC (RFC 4231)                                                     *)
(* ------------------------------------------------------------------ *)

let test_hmac_case1 () =
  let key = Bytes.make 20 '\x0b' in
  check_hex "hmac case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_string ~key "Hi There")

let test_hmac_case2 () =
  check_hex "hmac case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_string ~key:(Bytes.of_string "Jefe") "what do ya want for nothing?")

let test_hmac_long_key () =
  (* RFC 4231 case 6: 131-byte key forces the key-hashing path. *)
  let key = Bytes.make 131 '\xaa' in
  check_hex "hmac case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_string ~key "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_verify () =
  let key = Bytes.of_string "k" in
  let msg = Bytes.of_string "msg" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "accepts valid" true (Hmac.verify ~key msg ~tag);
  Bytes.set tag 0 (Char.chr (Char.code (Bytes.get tag 0) lxor 1));
  Alcotest.(check bool) "rejects flipped bit" false (Hmac.verify ~key msg ~tag);
  Alcotest.(check bool) "rejects short tag" false
    (Hmac.verify ~key msg ~tag:(Bytes.sub tag 0 16))

(* ------------------------------------------------------------------ *)
(* HKDF (RFC 5869)                                                     *)
(* ------------------------------------------------------------------ *)

let test_hkdf_case1 () =
  let ikm = Bytes.make 22 '\x0b' in
  let salt = bytes_of_hex "000102030405060708090a0b0c" in
  let prk = Hkdf.extract ~salt ~ikm in
  check_hex "prk" "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5" prk;
  let okm = Hkdf.expand ~prk ~info:"\xf0\xf1\xf2\xf3\xf4\xf5\xf6\xf7\xf8\xf9" ~len:42 in
  check_hex "okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    okm

let test_hkdf_lengths () =
  let prk = Hkdf.extract ~salt:Bytes.empty ~ikm:(Bytes.of_string "secret") in
  List.iter
    (fun len ->
      Alcotest.(check int) "okm length" len (Bytes.length (Hkdf.expand ~prk ~info:"i" ~len)))
    [ 1; 31; 32; 33; 64; 100 ];
  Alcotest.check_raises "overlong output" (Invalid_argument "Hkdf.expand: output too long")
    (fun () -> ignore (Hkdf.expand ~prk ~info:"i" ~len:(256 * 32)))

(* ------------------------------------------------------------------ *)
(* ChaCha20 (RFC 8439)                                                 *)
(* ------------------------------------------------------------------ *)

let rfc_key = bytes_of_hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

let test_chacha_block () =
  let nonce = bytes_of_hex "000000090000004a00000000" in
  let ks = Chacha20.block ~key:rfc_key ~nonce ~counter:1l in
  Alcotest.(check string) "rfc 8439 2.3.2 keystream"
    ("10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
     ^ "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
    (hex_of ks)

let test_chacha_encrypt () =
  let nonce = bytes_of_hex "000000000000004a00000000" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you \
     only one tip for the future, sunscreen would be it."
  in
  let ct = Chacha20.xor ~key:rfc_key ~nonce (Bytes.of_string plaintext) in
  Alcotest.(check string) "rfc 8439 2.4.2 first 32 ct bytes"
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
    (hex_of (Bytes.sub ct 0 32));
  (* xor is an involution *)
  let pt = Chacha20.xor ~key:rfc_key ~nonce ct in
  Alcotest.(check string) "roundtrip" plaintext (Bytes.to_string pt)

let prop_chacha_involution =
  QCheck.Test.make ~name:"chacha xor involution" ~count:100
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun msg ->
      let key = Sha256.digest_string "k" in
      let nonce = Bytes.make 12 '\x07' in
      let data = Bytes.of_string msg in
      Bytes.equal data (Chacha20.xor ~key ~nonce (Chacha20.xor ~key ~nonce data)))

(* ------------------------------------------------------------------ *)
(* AEAD                                                                *)
(* ------------------------------------------------------------------ *)

let aead_key = Sha256.digest_string "aead key"
let nonce12 = Bytes.make 12 '\x01'

let test_aead_roundtrip () =
  let ad = Bytes.of_string "header" in
  let pt = Bytes.of_string "the secret payload" in
  let sealed = Aead.seal ~key:aead_key ~nonce:nonce12 ~ad pt in
  (match Aead.open_ ~key:aead_key ~ad sealed with
  | Some got -> Alcotest.(check string) "roundtrip" (Bytes.to_string pt) (Bytes.to_string got)
  | None -> Alcotest.fail "authentic message rejected");
  Alcotest.(check int) "wire size" (12 + Bytes.length pt + 32) (Aead.sealed_size sealed)

let test_aead_tamper () =
  let ad = Bytes.of_string "ad" in
  let sealed = Aead.seal ~key:aead_key ~nonce:nonce12 ~ad (Bytes.of_string "data") in
  let flip b i = Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x80)) in
  let tampered_ct = { sealed with Aead.ciphertext = Bytes.copy sealed.Aead.ciphertext } in
  flip tampered_ct.Aead.ciphertext 0;
  Alcotest.(check bool) "ciphertext tamper rejected" true
    (Aead.open_ ~key:aead_key ~ad tampered_ct = None);
  let tampered_tag = { sealed with Aead.tag = Bytes.copy sealed.Aead.tag } in
  flip tampered_tag.Aead.tag 5;
  Alcotest.(check bool) "tag tamper rejected" true
    (Aead.open_ ~key:aead_key ~ad tampered_tag = None);
  Alcotest.(check bool) "wrong ad rejected" true
    (Aead.open_ ~key:aead_key ~ad:(Bytes.of_string "xx") sealed = None);
  Alcotest.(check bool) "wrong key rejected" true
    (Aead.open_ ~key:(Sha256.digest_string "other") ~ad sealed = None)

let prop_aead_roundtrip =
  QCheck.Test.make ~name:"aead seal/open roundtrip" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 200)) (string_of_size Gen.(0 -- 50)))
    (fun (pt, ad) ->
      let sealed =
        Aead.seal ~key:aead_key ~nonce:nonce12 ~ad:(Bytes.of_string ad) (Bytes.of_string pt)
      in
      match Aead.open_ ~key:aead_key ~ad:(Bytes.of_string ad) sealed with
      | Some got -> Bytes.to_string got = pt
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Bignum                                                              *)
(* ------------------------------------------------------------------ *)

let bn_equal a b = Bignum.compare a b = 0
let bn = Alcotest.testable (fun fmt b -> Fmt.string fmt (Sha256.hex (Bignum.to_bytes b))) bn_equal

let test_bignum_basic () =
  Alcotest.check bn "0 + 0" Bignum.zero (Bignum.add Bignum.zero Bignum.zero);
  Alcotest.check bn "1 * 1" Bignum.one (Bignum.mul Bignum.one Bignum.one);
  Alcotest.check bn "hex roundtrip" (Bignum.of_int 0xdeadbeef) (Bignum.of_hex "deadbeef");
  Alcotest.(check int) "bit_length 0" 0 (Bignum.bit_length Bignum.zero);
  Alcotest.(check int) "bit_length 255" 8 (Bignum.bit_length (Bignum.of_int 255));
  Alcotest.(check int) "bit_length 256" 9 (Bignum.bit_length (Bignum.of_int 256))

let test_bignum_bytes_roundtrip () =
  let v = Bignum.of_hex "0123456789abcdef0123456789abcdef01" in
  Alcotest.check bn "bytes roundtrip" v (Bignum.of_bytes (Bignum.to_bytes v));
  let padded = Bignum.to_bytes ~len:32 v in
  Alcotest.(check int) "padded length" 32 (Bytes.length padded);
  Alcotest.check bn "padded roundtrip" v (Bignum.of_bytes padded);
  Alcotest.check_raises "does not fit" (Invalid_argument "Bignum.to_bytes: value does not fit")
    (fun () -> ignore (Bignum.to_bytes ~len:2 v))

let prop_bignum_add_small =
  QCheck.Test.make ~name:"bignum add matches int" ~count:200
    QCheck.(pair (int_bound 1_000_000_000) (int_bound 1_000_000_000))
    (fun (a, b) ->
      bn_equal (Bignum.add (Bignum.of_int a) (Bignum.of_int b)) (Bignum.of_int (a + b)))

let prop_bignum_mul_small =
  QCheck.Test.make ~name:"bignum mul matches int" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) ->
      bn_equal (Bignum.mul (Bignum.of_int a) (Bignum.of_int b)) (Bignum.of_int (a * b)))

let prop_bignum_sub =
  QCheck.Test.make ~name:"bignum (a+b)-b = a" ~count:200
    QCheck.(pair (int_bound 1_000_000_000) (int_bound 1_000_000_000))
    (fun (a, b) ->
      let ba = Bignum.of_int a and bb = Bignum.of_int b in
      bn_equal (Bignum.sub (Bignum.add ba bb) bb) ba)

let test_modpow_small () =
  (* 3^20 mod 1000003 and friends, cross-checked with a naive loop. *)
  let naive b e m =
    let rec go acc e = if e = 0 then acc else go (acc * b mod m) (e - 1) in
    go 1 e
  in
  List.iter
    (fun (b, e, m) ->
      let ctx = Bignum.Mont.create (Bignum.of_int m) in
      Alcotest.check bn
        (Printf.sprintf "%d^%d mod %d" b e m)
        (Bignum.of_int (naive b e m))
        (Bignum.Mont.modpow ctx (Bignum.of_int b) (Bignum.of_int e)))
    [ (3, 20, 1_000_003); (2, 100, 999_983); (7, 0, 11); (0, 5, 13); (12345, 77, 131_071) ]

let test_modpow_fermat () =
  (* Fermat's little theorem: a^(p-1) = 1 mod p for prime p. *)
  let p = 1_000_003 in
  let ctx = Bignum.Mont.create (Bignum.of_int p) in
  List.iter
    (fun a ->
      Alcotest.check bn "fermat" Bignum.one
        (Bignum.Mont.modpow ctx (Bignum.of_int a) (Bignum.of_int (p - 1))))
    [ 2; 3; 65537; 999_999 ]

let test_mont_rejects () =
  Alcotest.check_raises "even modulus" (Invalid_argument "Mont.create: modulus must be odd")
    (fun () -> ignore (Bignum.Mont.create (Bignum.of_int 100)));
  Alcotest.check_raises "tiny modulus" (Invalid_argument "Mont.create: modulus too small")
    (fun () -> ignore (Bignum.Mont.create (Bignum.of_int 2)))

(* ------------------------------------------------------------------ *)
(* DH                                                                  *)
(* ------------------------------------------------------------------ *)

let test_dh_agreement () =
  let rng = Drbg.create ~seed:"dh test" in
  let alice = Dh.generate rng and bob = Dh.generate rng in
  let sa = Dh.shared_secret alice ~peer_public:(Dh.public_bytes bob) in
  let sb = Dh.shared_secret bob ~peer_public:(Dh.public_bytes alice) in
  match (sa, sb) with
  | Some sa, Some sb ->
      Alcotest.(check string) "shared secrets agree" (hex_of sa) (hex_of sb);
      Alcotest.(check int) "secret is 32 bytes" 32 (Bytes.length sa)
  | _ -> Alcotest.fail "in-range public value rejected"

let test_dh_distinct_pairs () =
  let rng = Drbg.create ~seed:"dh distinct" in
  let a = Dh.generate rng and b = Dh.generate rng in
  Alcotest.(check bool) "keypairs differ" false (bn_equal a.Dh.public b.Dh.public)

let test_dh_rejects_degenerate () =
  let rng = Drbg.create ~seed:"dh degenerate" in
  let kp = Dh.generate rng in
  List.iter
    (fun peer ->
      Alcotest.(check bool) "degenerate peer rejected" true
        (Dh.shared_secret kp ~peer_public:peer = None))
    [
      Bignum.to_bytes ~len:192 Bignum.zero;
      Bignum.to_bytes ~len:192 Bignum.one;
      Bignum.to_bytes ~len:192 Dh.group_prime;
      Bignum.to_bytes ~len:192 (Bignum.add Dh.group_prime Bignum.one);
    ]

(* ------------------------------------------------------------------ *)
(* DRBG                                                                *)
(* ------------------------------------------------------------------ *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"seed" and b = Drbg.create ~seed:"seed" in
  Alcotest.(check string) "same seed, same stream"
    (hex_of (Drbg.bytes a 100))
    (hex_of (Drbg.bytes b 100));
  let c = Drbg.create ~seed:"other" in
  Alcotest.(check bool) "different seed, different stream" false
    (Bytes.equal (Drbg.bytes (Drbg.create ~seed:"seed") 100) (Drbg.bytes c 100))

(* Known-answer test: the stream is pinned, not just repeatable, because
   every Fig. 9 contention draw and every sampled token comes from it. The
   byte offsets in the comments count keystream consumed: the int64 at 58
   and the bytes at 113 straddle a 64-byte pool refill, and the reseed
   discards the rest of the pool. *)
let test_drbg_known_answer () =
  let d = Drbg.create ~seed:"erebor drbg kat" in
  let bytes n = hex_of (Drbg.bytes d n) in
  let float () = Printf.sprintf "%h" (Drbg.float d) in
  let int () = string_of_int (Drbg.int d 1000) in
  let int64 () = Printf.sprintf "%Lx" (Drbg.int64 d) in
  let before =
    [ bytes 5; bytes 13; float () (* 18 *); int (); int (); int ();
      int64 () (* 50 *); int64 () (* 58 *); bytes 31 (* 66 *);
      float () (* 97 *); int () (* 105 *); bytes 17 (* 113 *);
      float () (* 130 *) ]
  in
  Drbg.reseed d "kat entropy";
  let after = [ bytes 7; int64 (); float (); int () ] in
  Alcotest.(check (list string)) "pinned stream"
    [ "198508583f"; "75692f217974499c45a6d57baa"; "0x1.0924b66bd2c9cp-1";
      "307"; "590"; "364"; "4b6d2910875e8cfb"; "4e1aa9caa2d21928";
      "a98a7b138c7d6d055aa58d0f9edd537ead8c2eb13d4a006612d86cc6cc1bdc";
      "0x1.5b844e90c8bebp-2"; "498"; "3845ea5a87a87af6ecfa9af50a0d14b269";
      "0x1.28db63b79955bp-3"; "cb15da8e339ecc"; "2b1ff0ff6d350d13";
      "0x1.42fe29fc0b394p-3"; "461" ]
    (before @ after)

let test_drbg_int_bounds () =
  let rng = Drbg.create ~seed:"bounds" in
  for _ = 1 to 1000 do
    let v = Drbg.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.fail "out of bounds"
  done;
  Alcotest.(check int) "bound 1" 0 (Drbg.int rng 1);
  Alcotest.check_raises "bound 0" (Invalid_argument "Drbg.int: bound must be positive")
    (fun () -> ignore (Drbg.int rng 0))

let test_drbg_float_range () =
  let rng = Drbg.create ~seed:"floats" in
  for _ = 1 to 1000 do
    let f = Drbg.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_drbg_reseed () =
  let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
  ignore (Drbg.bytes a 10);
  ignore (Drbg.bytes b 10);
  Drbg.reseed a "fresh entropy";
  Alcotest.(check bool) "reseed diverges" false
    (Bytes.equal (Drbg.bytes a 32) (Drbg.bytes b 32))

(* The generator as it stood before it kept its keyed state: each refill
   rebuilds the ChaCha20 input from the key and a nonce holding the block
   index (8 little-endian bytes, then 4 zero bytes), under ChaCha counter 0.
   Written plainly, byte by byte; the property below pins [Drbg] to it. *)
module Ref_drbg = struct
  type t = { mutable key : bytes; mutable counter : int; pool : bytes; mutable off : int }

  let create ~seed =
    { key = Sha256.digest_string seed; counter = 0; pool = Bytes.create 64; off = 64 }

  let refill t =
    let nonce = Bytes.make Chacha20.nonce_size '\000' in
    for i = 0 to 7 do
      Bytes.set nonce i (Char.chr ((t.counter lsr (8 * i)) land 0xff))
    done;
    t.counter <- t.counter + 1;
    Chacha20.block_into ~key:t.key ~nonce ~counter:0l t.pool;
    t.off <- 0

  let byte t =
    if t.off >= 64 then refill t;
    t.off <- t.off + 1;
    Char.code (Bytes.get t.pool (t.off - 1))

  let bytes t n = Bytes.init n (fun _ -> Char.chr (byte t))

  (* Eight bytes big-endian, shifted right once. *)
  let int64 t =
    let v = ref 0L in
    for _ = 1 to 8 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte t))
    done;
    Int64.shift_right_logical !v 1

  let float t = Int64.to_float (int64 t) /. 9.223372036854775808e18

  let rec int t bound =
    let b = Int64.of_int bound in
    let v = int64 t in
    if v >= Int64.mul (Int64.div Int64.max_int b) b then int t bound
    else Int64.to_int (Int64.rem v b)

  let reseed t entropy =
    let ctx = Sha256.init () in
    Sha256.feed ctx t.key;
    Sha256.feed_string ctx entropy;
    t.key <- Sha256.digest ctx;
    t.off <- 64
end

type drbg_op = Bytes of int | Float | Int of int | Int64 | Reseed of string

let pp_drbg_op = function
  | Bytes n -> Printf.sprintf "bytes %d" n
  | Float -> "float"
  | Int b -> Printf.sprintf "int %d" b
  | Int64 -> "int64"
  | Reseed e -> Printf.sprintf "reseed %S" e

let prop_drbg_matches_reference =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun n -> Bytes n) (0 -- 150));
          (4, return Float);
          (4, map (fun b -> Int b) (oneof [ 1 -- 10; 1 -- 1_000_000; return max_int ]));
          (3, return Int64);
          (1, map (fun e -> Reseed e) (string_size (0 -- 12)));
        ])
  in
  let arb =
    QCheck.make
      ~print:(fun (seed, ops) ->
        Printf.sprintf "seed %S: %s" seed (String.concat "; " (List.map pp_drbg_op ops)))
      QCheck.Gen.(pair (string_size (0 -- 20)) (list_size (0 -- 300) op))
  in
  QCheck.Test.make ~name:"drbg stream = per-refill reference" ~count:200 arb
    (fun (seed, ops) ->
      let d = Drbg.create ~seed and r = Ref_drbg.create ~seed in
      List.for_all
        (function
          | Bytes n -> Bytes.equal (Drbg.bytes d n) (Ref_drbg.bytes r n)
          | Float -> Int64.equal (Int64.bits_of_float (Drbg.float d))
                       (Int64.bits_of_float (Ref_drbg.float r))
          | Int b -> Drbg.int d b = Ref_drbg.int r b
          | Int64 -> Int64.equal (Drbg.int64 d) (Ref_drbg.int64 r)
          | Reseed e ->
              Drbg.reseed d e;
              Ref_drbg.reseed r e;
              true)
        ops)

(* A warm draw allocates nothing: the keyed state is reused across
   refills, and [float]/[int64] inline so their results stay unboxed. The
   probe subtracts [Gc.minor_words]' own result box. *)
let test_drbg_zero_alloc () =
  let d = Drbg.create ~seed:"zero alloc" in
  ignore (Drbg.bytes d 200);
  let facc = ref 0.0 and iacc = ref 0 and lacc = ref 0L in
  let probe =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let m0 = Gc.minor_words () in
  for i = 1 to 100_000 do
    match i mod 3 with
    | 0 -> facc := !facc +. Drbg.float d
    | 1 -> iacc := !iacc + Drbg.int d (1 + (i land 1023))
    | _ -> lacc := Int64.logxor !lacc (Drbg.int64 d)
  done;
  let words = Gc.minor_words () -. m0 -. probe in
  Alcotest.(check (float 0.0)) "minor words over 100k draws" 0.0 words;
  Alcotest.(check bool) "draws were consumed" true
    (!facc > 0.0 && !iacc > 0 && not (Int64.equal !lacc 0L))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "empty" `Quick test_sha256_empty;
          Alcotest.test_case "abc" `Quick test_sha256_abc;
          Alcotest.test_case "two blocks" `Quick test_sha256_two_blocks;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "incremental splits" `Quick test_sha256_incremental_split;
          Alcotest.test_case "reuse rejected" `Quick test_sha256_reuse_rejected;
          qt prop_sha256_chunking;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 case 1" `Quick test_hmac_case1;
          Alcotest.test_case "rfc4231 case 2" `Quick test_hmac_case2;
          Alcotest.test_case "rfc4231 long key" `Quick test_hmac_long_key;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "hkdf",
        [
          Alcotest.test_case "rfc5869 case 1" `Quick test_hkdf_case1;
          Alcotest.test_case "output lengths" `Quick test_hkdf_lengths;
        ] );
      ( "chacha20",
        [
          Alcotest.test_case "rfc8439 block" `Quick test_chacha_block;
          Alcotest.test_case "rfc8439 encrypt" `Quick test_chacha_encrypt;
          qt prop_chacha_involution;
        ] );
      ( "aead",
        [
          Alcotest.test_case "roundtrip" `Quick test_aead_roundtrip;
          Alcotest.test_case "tamper rejected" `Quick test_aead_tamper;
          qt prop_aead_roundtrip;
        ] );
      ( "bignum",
        [
          Alcotest.test_case "basics" `Quick test_bignum_basic;
          Alcotest.test_case "bytes roundtrip" `Quick test_bignum_bytes_roundtrip;
          Alcotest.test_case "modpow small" `Quick test_modpow_small;
          Alcotest.test_case "modpow fermat" `Quick test_modpow_fermat;
          Alcotest.test_case "mont rejects" `Quick test_mont_rejects;
          qt prop_bignum_add_small;
          qt prop_bignum_mul_small;
          qt prop_bignum_sub;
        ] );
      ( "dh",
        [
          Alcotest.test_case "agreement" `Quick test_dh_agreement;
          Alcotest.test_case "distinct pairs" `Quick test_dh_distinct_pairs;
          Alcotest.test_case "rejects degenerate" `Quick test_dh_rejects_degenerate;
        ] );
      ( "drbg",
        [
          Alcotest.test_case "deterministic" `Quick test_drbg_deterministic;
          Alcotest.test_case "known answer" `Quick test_drbg_known_answer;
          Alcotest.test_case "int bounds" `Quick test_drbg_int_bounds;
          Alcotest.test_case "float range" `Quick test_drbg_float_range;
          Alcotest.test_case "reseed" `Quick test_drbg_reseed;
          Alcotest.test_case "warm draws allocate nothing" `Quick test_drbg_zero_alloc;
          qt prop_drbg_matches_reference;
        ] );
    ]
