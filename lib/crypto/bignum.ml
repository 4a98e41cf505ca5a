(* Little-endian 26-bit limbs. 26 bits keeps every intermediate product
   (limb*limb + limb + carry < 2^53) comfortably inside OCaml's 63-bit
   native int, with headroom for Montgomery accumulation. *)

let bits = 26
let base = 1 lsl bits
let mask = base - 1

type t = int array (* normalized: no trailing (most-significant) zero limbs *)

let zero : t = [||]
let one : t = [| 1 |]

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs n = if n = 0 then [] else (n land mask) :: limbs (n lsr bits) in
  Array.of_list (limbs n)

let is_zero a = Array.length a = 0

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let v = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- v land mask;
    carry := v lsr bits
  done;
  out.(n) <- !carry;
  normalize out

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let v = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if v < 0 then begin
      out.(i) <- v + base;
      borrow := 1
    end else begin
      out.(i) <- v;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize out

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let v = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- v land mask;
        carry := v lsr bits
      done;
      out.(i + lb) <- out.(i + lb) + !carry
    done;
    normalize out
  end

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * bits) + width top 0
  end

let test_bit a i =
  let limb = i / bits and off = i mod bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

(* Double [a] modulo [m]; both < m required, m > 0. *)
let double_mod a m =
  let d = add a a in
  if compare d m >= 0 then sub d m else d

let mod_ a m =
  if is_zero m then invalid_arg "Bignum.mod_: zero modulus";
  if compare a m < 0 then a
  else begin
    (* Binary long division: fold the bits of [a] into a running remainder. *)
    let r = ref zero in
    for i = bit_length a - 1 downto 0 do
      r := double_mod !r m;
      if test_bit a i then begin
        let r' = add !r one in
        r := if compare r' m >= 0 then sub r' m else r'
      end
    done;
    !r
  end

let divmod a b =
  if is_zero b then invalid_arg "Bignum.divmod: zero divisor";
  if compare a b < 0 then (zero, a)
  else begin
    (* Binary long division, accumulating quotient bits. *)
    let n = bit_length a in
    let q = Array.make ((n / bits) + 1) 0 in
    let r = ref zero in
    for i = n - 1 downto 0 do
      r := add !r !r;
      if test_bit a i then r := add !r one;
      if compare !r b >= 0 then begin
        r := sub !r b;
        q.(i / bits) <- q.(i / bits) lor (1 lsl (i mod bits))
      end
    done;
    (normalize q, !r)
  end

let is_even a = not (test_bit a 0)

let shift_right_one a =
  let n = Array.length a in
  if n = 0 then zero
  else begin
    let out = Array.make n 0 in
    for i = 0 to n - 1 do
      let low_of_next = if i + 1 < n then (a.(i + 1) land 1) lsl (bits - 1) else 0 in
      out.(i) <- (a.(i) lsr 1) lor low_of_next
    done;
    normalize out
  end

(* Iterative extended Euclid. Coefficients of [a] are tracked as
   (negative?, magnitude) pairs over naturals: t_i * a = r_i (mod m). *)
let invmod a m =
  if is_zero m then None
  else begin
    let a = mod_ a m in
    if is_zero a then None
    else begin
      let rec go r0 r1 (s0, t0) (s1, t1) =
        if is_zero r1 then
          if equal r0 one then
            let v = mod_ t0 m in
            Some (if s0 && not (is_zero v) then sub m v else v)
          else None
        else begin
          let q, rem = divmod r0 r1 in
          let qt = mul q t1 in
          let s2, t2 =
            if s0 = s1 then
              if compare t0 qt >= 0 then (s0, sub t0 qt) else (not s0, sub qt t0)
            else (s0, add t0 qt)
          in
          go r1 rem (s1, t1) (s2, t2)
        end
      in
      go m a (false, zero) (false, one)
    end
  end

let of_hex s =
  let acc = ref zero in
  let sixteen = of_int 16 in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> acc := add (mul !acc sixteen) (of_int (Char.code c - Char.code '0'))
      | 'a' .. 'f' -> acc := add (mul !acc sixteen) (of_int (Char.code c - Char.code 'a' + 10))
      | 'A' .. 'F' -> acc := add (mul !acc sixteen) (of_int (Char.code c - Char.code 'A' + 10))
      | ' ' | '\t' | '\n' | '\r' -> ()
      | _ -> invalid_arg "Bignum.of_hex: bad character")
    s;
  !acc

let of_bytes b =
  let n = Bytes.length b in
  if n = 0 then zero
  else begin
    (* Pack big-endian bytes straight into limbs: byte i (counted from the
       little end) lands at bit offset 8i, spanning at most two limbs. *)
    let out = Array.make (((8 * n) + bits - 1) / bits) 0 in
    for i = 0 to n - 1 do
      let v = Char.code (Bytes.get b (n - 1 - i)) in
      let limb = 8 * i / bits and off = 8 * i mod bits in
      out.(limb) <- out.(limb) lor ((v lsl off) land mask);
      if off > bits - 8 then out.(limb + 1) <- out.(limb + 1) lor (v lsr (bits - off))
    done;
    normalize out
  end

let to_bytes ?len a =
  let nbytes = (bit_length a + 7) / 8 in
  let len =
    match len with
    | None -> nbytes
    | Some l ->
        if l < nbytes then invalid_arg "Bignum.to_bytes: value does not fit";
        l
  in
  let out = Bytes.make len '\000' in
  for i = 0 to nbytes - 1 do
    (* byte i counted from the little end *)
    let lo = i * 8 in
    let v = ref 0 in
    for bit = 7 downto 0 do
      v := (!v lsl 1) lor (if test_bit a (lo + bit) then 1 else 0)
    done;
    Bytes.set out (len - 1 - i) (Char.chr !v)
  done;
  out

module Mont = struct
  type ctx = {
    m : int array;    (* modulus, fixed k limbs *)
    k : int;
    n0inv : int;      (* -m0^{-1} mod 2^bits *)
    r_mod : int array; (* R mod m, fixed k limbs (= 1 in Montgomery domain) *)
    r2 : int array;    (* R^2 mod m, fixed k limbs *)
    modulus : t;
  }

  let to_fixed k (a : t) =
    let out = Array.make k 0 in
    Array.blit a 0 out 0 (Array.length a);
    out

  let of_fixed a = normalize (Array.copy a)

  (* Inverse of odd [m0] modulo 2^bits, by Newton iteration. *)
  let inv_limb m0 =
    let x = ref m0 in
    for _ = 1 to 6 do
      x := (!x * (2 - (m0 * !x))) land mask
    done;
    assert ((m0 * !x) land mask = 1);
    !x

  let create modulus =
    if compare modulus (of_int 3) < 0 then invalid_arg "Mont.create: modulus too small";
    if not (test_bit modulus 0) then invalid_arg "Mont.create: modulus must be odd";
    let k = Array.length modulus in
    let n0inv = (base - inv_limb modulus.(0)) land mask in
    (* R mod m by k*bits modular doublings of 1; R^2 mod m by k*bits more. *)
    let r = ref one in
    for _ = 1 to k * bits do
      r := double_mod !r modulus
    done;
    let r_mod = !r in
    for _ = 1 to k * bits do
      r := double_mod !r modulus
    done;
    {
      m = to_fixed k modulus;
      k;
      n0inv;
      r_mod = to_fixed k r_mod;
      r2 = to_fixed k !r;
      modulus;
    }

  (* Fused CIOS Montgomery product: dst <- a*b*R^{-1} mod m. Inputs are fixed
     k-limb arrays representing values < m; [t] is caller-provided scratch of
     k+1 limbs. The reduction step for limb i folds the a_i*b multiply, the
     u_i*m addition and the one-limb shift into a single carry chain, so each
     product is one pass over the limbs instead of three. [dst] may alias [a]
     or [b] (it is only written after the last read); [t] may alias neither.
     Per-limb bound: t_j + a_i*b_j + u_i*m_j + carry < 2^26 + 2*2^52 + 2^28,
     well inside a 63-bit int. *)
  let mont_mul_into ctx t dst a b =
    let k = ctx.k in
    let m = ctx.m and n0inv = ctx.n0inv in
    Array.fill t 0 (k + 1) 0;
    let b0 = Array.unsafe_get b 0 in
    for i = 0 to k - 1 do
      let ai = Array.unsafe_get a i in
      let v0 = Array.unsafe_get t 0 + (ai * b0) in
      let u = ((v0 land mask) * n0inv) land mask in
      let carry = ref ((v0 + (u * Array.unsafe_get m 0)) lsr bits) in
      for j = 1 to k - 1 do
        let v =
          Array.unsafe_get t j + (ai * Array.unsafe_get b j)
          + (u * Array.unsafe_get m j) + !carry
        in
        Array.unsafe_set t (j - 1) (v land mask);
        carry := v lsr bits
      done;
      let v = Array.unsafe_get t k + !carry in
      Array.unsafe_set t (k - 1) (v land mask);
      Array.unsafe_set t k (v lsr bits)
    done;
    (* t now holds a value < 2m in limbs 0..k; conditional final subtraction. *)
    let ge =
      Array.unsafe_get t k > 0
      ||
      let rec go i =
        if i < 0 then true
        else
          let ti = Array.unsafe_get t i and mi = Array.unsafe_get m i in
          if ti <> mi then ti > mi else go (i - 1)
      in
      go (k - 1)
    in
    if ge then begin
      let borrow = ref 0 in
      for i = 0 to k - 1 do
        let v = Array.unsafe_get t i - Array.unsafe_get m i - !borrow in
        if v < 0 then begin
          Array.unsafe_set dst i (v + base);
          borrow := 1
        end else begin
          Array.unsafe_set dst i v;
          borrow := 0
        end
      done
    end
    else Array.blit t 0 dst 0 k

  let modpow ctx b e =
    if compare b ctx.modulus >= 0 then invalid_arg "Mont.modpow: base >= modulus";
    let k = ctx.k in
    (* One scratch + two residue buffers reused across the whole ladder: the
       square-and-multiply loop allocates nothing. *)
    let t = Array.make (k + 1) 0 in
    let b_mont = Array.make k 0 in
    let acc = Array.make k 0 in
    mont_mul_into ctx t b_mont (to_fixed k b) ctx.r2;
    Array.blit ctx.r_mod 0 acc 0 k;
    for i = bit_length e - 1 downto 0 do
      mont_mul_into ctx t acc acc acc;
      if test_bit e i then mont_mul_into ctx t acc acc b_mont
    done;
    mont_mul_into ctx t acc acc (to_fixed k one);
    of_fixed acc
end
