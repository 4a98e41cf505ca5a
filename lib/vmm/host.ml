type t = {
  cpuid_table : (int, int64) Hashtbl.t;
  interrupts : int Queue.t;
  mutable observed : bytes list;
  mutable vmcalls : Tdx.Ghci.vmcall list;
}

let create () =
  {
    cpuid_table = Hashtbl.create 8;
    interrupts = Queue.create ();
    observed = [];
    vmcalls = [];
  }

let default_cpuid leaf = Int64.of_int (0x47656e75 lxor leaf) (* "Genu"-flavoured *)

let set_cpuid t ~leaf v = Hashtbl.replace t.cpuid_table leaf v

let handler t vmcall =
  t.vmcalls <- vmcall :: t.vmcalls;
  match vmcall with
  | Tdx.Ghci.Cpuid leaf ->
      Tdx.Td_module.V_int
        (Option.value ~default:(default_cpuid leaf) (Hashtbl.find_opt t.cpuid_table leaf))
  | Tdx.Ghci.Hlt -> Tdx.Td_module.V_unit
  | Tdx.Ghci.Io_read { port; len } ->
      Tdx.Td_module.V_bytes (Bytes.make len (Char.chr (port land 0xff)))
  | Tdx.Ghci.Io_write { data; _ } ->
      t.observed <- Bytes.copy data :: t.observed;
      Tdx.Td_module.V_unit
  | Tdx.Ghci.Mmio_read { len; _ } -> Tdx.Td_module.V_bytes (Bytes.make len '\000')
  | Tdx.Ghci.Mmio_write { data; _ } ->
      t.observed <- Bytes.copy data :: t.observed;
      Tdx.Td_module.V_unit

let inject_external_interrupt t ~vector = Queue.add vector t.interrupts

let pending_interrupt t = Queue.peek_opt t.interrupts
let take_interrupt t = Queue.take_opt t.interrupts

let observed_contains t needle =
  let contains hay =
    let h = Bytes.to_string hay in
    let n = String.length needle and hl = String.length h in
    let rec go i = i + n <= hl && (String.sub h i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  List.exists contains t.observed

let vmcall_log t = List.rev t.vmcalls
