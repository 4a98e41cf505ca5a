let ibt_bit = Int64.to_int Msr.s_cet_ibt_bit

let[@inline] ibt_blocks ~s_cet ~endbr = s_cet land ibt_bit <> 0 && not endbr
