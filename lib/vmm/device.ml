type t = {
  mem : Hw.Phys_mem.t;
  sept : Tdx.Sept.t;
  mutable blocked : int;
}

let create ~mem ~sept = { mem; sept; blocked = 0 }

let frames_of_range gpa len =
  let first = Hw.Phys_mem.pfn_of_addr gpa in
  let last = Hw.Phys_mem.pfn_of_addr (gpa + max 0 (len - 1)) in
  List.init (last - first + 1) (fun i -> first + i)

let check_shared t gpa len =
  if len < 0 || gpa < 0 then Error "bad DMA range"
  else begin
    let frames = Tdx.Sept.frames t.sept in
    let bad =
      List.find_opt
        (fun pfn -> pfn >= frames || not (Tdx.Sept.is_shared t.sept pfn))
        (frames_of_range gpa len)
    in
    match bad with
    | Some pfn ->
        t.blocked <- t.blocked + 1;
        Error (Printf.sprintf "IOMMU: DMA to private/invalid pfn %d blocked" pfn)
    | None -> Ok ()
  end

let dma_read t ~gpa ~len =
  Result.map (fun () -> Hw.Phys_mem.read_bytes t.mem gpa len) (check_shared t gpa len)

let dma_write t ~gpa data =
  Result.map
    (fun () -> Hw.Phys_mem.write_bytes t.mem gpa data)
    (check_shared t gpa (Bytes.length data))

let blocked_dma_count t = t.blocked
