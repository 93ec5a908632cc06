type ctx = ..
type ctx += Null_ctx

type t = { ctx : ctx; fault : Fault.t; deadline : Deadline.t }

let default = { ctx = Null_ctx; fault = Fault.disabled; deadline = Deadline.none }
let with_ctx t ctx = { t with ctx }
let with_fault t fault = { t with fault }
let with_deadline t deadline = { t with deadline }
let ctx t = t.ctx
let fault t = t.fault
let deadline t = t.deadline
