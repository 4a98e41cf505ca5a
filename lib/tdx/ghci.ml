type vmcall =
  | Cpuid of int
  | Hlt
  | Io_read of { port : int; len : int }
  | Io_write of { port : int; data : bytes }
  | Mmio_read of { gpa : int; len : int }
  | Mmio_write of { gpa : int; data : bytes }

type leaf =
  | Vmcall of vmcall
  | Tdreport of { report_data : bytes }
  | Map_gpa of { pfn : int; shared : bool }
  | Rtmr_extend of { index : int; data : bytes }
