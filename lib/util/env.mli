(** The execution environment: one record for the cross-cutting concerns
    every engine entry point used to take as separate optional arguments.

    An [Env.t] bundles the telemetry context, the fault-injection plan and
    the cooperative deadline that accompany a unit of work. {!default} is
    the all-Null-sinks environment — disabled faults, no deadline, a null
    telemetry slot — and preserves the one-branch-when-off guarantee of
    each component: passing {!default} costs exactly what passing nothing
    used to.

    The telemetry slot is an extensible variant because this library sits
    below [Monsoon_telemetry] in the dependency order: the telemetry layer
    registers its own [ctx] constructor and provides the packing functions
    ([Ctx.to_env] / [Ctx.of_env]). *)

type ctx = ..
(** Extension point for the telemetry context (see
    [Monsoon_telemetry.Ctx.to_env]). *)

type ctx += Null_ctx
(** The empty slot; consumers treat it as a fresh Null-sink context. *)

type t = { ctx : ctx; fault : Fault.t; deadline : Deadline.t }

val default : t
(** [Null_ctx] + {!Fault.disabled} + {!Deadline.none}. *)

val with_ctx : t -> ctx -> t
val with_fault : t -> Fault.t -> t
val with_deadline : t -> Deadline.t -> t

val ctx : t -> ctx
val fault : t -> Fault.t
val deadline : t -> Deadline.t
