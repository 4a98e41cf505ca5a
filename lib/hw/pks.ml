type rights = { access_disable : bool; write_disable : bool }

let allow_all = { access_disable = false; write_disable = false }
let read_only = { access_disable = false; write_disable = true }
let no_access = { access_disable = true; write_disable = false }

let bits_of { access_disable; write_disable } =
  (if access_disable then 1 else 0) lor if write_disable then 2 else 0

let rights_of_bits b =
  { access_disable = b land 1 = 1; write_disable = b land 2 = 2 }

let encode rights =
  if Array.length rights <> 16 then invalid_arg "Pks.encode: need 16 keys";
  let v = ref 0L in
  for key = 15 downto 0 do
    v := Int64.logor (Int64.shift_left !v 2) (Int64.of_int (bits_of rights.(key)))
  done;
  !v

let decode pkrs =
  Array.init 16 (fun key ->
      rights_of_bits (Int64.to_int (Int64.logand (Int64.shift_right_logical pkrs (2 * key)) 3L)))

let set_key ~pkrs ~key rights =
  if key < 0 || key > 15 then invalid_arg "Pks.set_key: key out of range";
  let cleared = Int64.logand pkrs (Int64.lognot (Int64.shift_left 3L (2 * key))) in
  Int64.logor cleared (Int64.shift_left (Int64.of_int (bits_of rights)) (2 * key))

(* Straight off the key's two bits, no [rights] record: the access check
   asks this on every supervisor data access under CR4.PKS. *)
let permits_bits ~pkrs ~key ~write =
  if key < 0 || key > 15 then invalid_arg "Pks.permits: key out of range";
  let b = pkrs lsr (2 * key) in
  b land 1 = 0 && ((not write) || b land 2 = 0)

let permits ~pkrs ~key ~write = permits_bits ~pkrs:(Int64.to_int pkrs) ~key ~write
