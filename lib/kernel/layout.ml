let user_base = 0x0000_0000_1000
let user_top = 0x0080_0000_0000
let direct_map_base = 0x1000_0000_0000
let kernel_text_base = 0x2000_0000_0000

let direct_map paddr = direct_map_base + paddr

let is_user_addr addr = addr >= user_base && addr < user_top

let page_align_up v = (v + Hw.Phys_mem.page_size - 1) land lnot (Hw.Phys_mem.page_size - 1)
let page_align_down v = v land lnot (Hw.Phys_mem.page_size - 1)
let pages_of_bytes n = (n + Hw.Phys_mem.page_size - 1) / Hw.Phys_mem.page_size
