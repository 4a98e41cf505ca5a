let hash_len = Sha256.digest_size

let extract ~salt ~ikm =
  let salt = if Bytes.length salt = 0 then Bytes.make hash_len '\000' else salt in
  Hmac.mac ~key:salt ikm

let expand ~prk ~info ~len =
  if len > 255 * hash_len then invalid_arg "Hkdf.expand: output too long";
  let out = Buffer.create len in
  let prev = ref Bytes.empty in
  let counter = ref 1 in
  while Buffer.length out < len do
    let msg = Bytes.concat Bytes.empty
        [ !prev; Bytes.of_string info; Bytes.make 1 (Char.chr !counter) ]
    in
    let block = Hmac.mac ~key:prk msg in
    Buffer.add_bytes out block;
    prev := block;
    incr counter
  done;
  Bytes.sub (Buffer.to_bytes out) 0 len
