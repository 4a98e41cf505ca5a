(* PKRS and S_CET sit on the EMC gate hot path (two writes and a read per
   monitor call); they live in unboxed fast slots, everything else in the
   table. Both registers are architecturally 32/64-bit but their defined
   bits fit a native int. *)
type t = {
  table : (int, int64) Hashtbl.t;
  mutable gen : int;
  mutable pkrs : int;
  mutable s_cet : int;
}

let ia32_lstar = 0xC0000082
let ia32_pkrs = 0x6E1
let ia32_s_cet = 0x6A2
let ia32_pl0_ssp = 0x6A4
let ia32_uintr_tt = 0x985
let ia32_efer = 0xC0000080

let s_cet_ibt_bit = 4L      (* bit 2: ENDBR_EN *)
let s_cet_shstk_bit = 1L    (* bit 0: SH_STK_EN *)
let uintr_tt_valid_bit = 1L

let create () = { table = Hashtbl.create 16; gen = 0; pkrs = 0; s_cet = 0 }

let read t idx =
  if idx = ia32_pkrs then Int64.of_int t.pkrs
  else if idx = ia32_s_cet then Int64.of_int t.s_cet
  else Option.value ~default:0L (Hashtbl.find_opt t.table idx)

let write t idx v =
  (if idx = ia32_pkrs then t.pkrs <- Int64.to_int v
   else if idx = ia32_s_cet then t.s_cet <- Int64.to_int v
   else if Int64.equal v 0L then Hashtbl.remove t.table idx
   else Hashtbl.replace t.table idx v);
  t.gen <- t.gen + 1

let pkrs_bits t = t.pkrs
let s_cet_bits t = t.s_cet

let write_pkrs_bits t v =
  t.pkrs <- v;
  t.gen <- t.gen + 1

let gen t = t.gen
