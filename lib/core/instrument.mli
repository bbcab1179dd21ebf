(** Protocol-aware observability attachments.

    These wire an engine's observer hooks into an {!Obs.Metrics} registry
    with the protocol's own message tags ({!Ba.tag_of_msg} et al.), so
    counters and histograms break down by phase (A1/A2/COIN sub-protocol,
    INIT/ECHO/OK/FIRST/SECOND kind) and, for BA, by round.  Pass them as
    the [?probe] of the {!Runner} entry points:

    {[
      let metrics = Obs.Metrics.create () in
      let o =
        Runner.run_ba
          ~probe:(fun eng -> Instrument.attach_ba eng ~metrics)
          ~keyring ~params ~inputs ~seed ()
      in
      ...
    ]}

    Attachment is observation-only: outcomes are byte-identical with and
    without it ([test/t_obs.ml] pins this down).  Sends are read through
    {!Sim.Engine.on_send_meta}, once per broadcast, so an attached engine
    keeps lazy broadcast expansion, and every series goes through an
    {!Obs.Metrics} handle resolved once per attachment.

    Counter series written ([class] is ["correct"] or ["byz"] at send
    time; [tag] comes from the protocol's [tag_of_msg]):
    - [sent_msgs{tag,class}], [sent_words{tag,class}]
    - [round_msgs{round}], [round_words{round}] (BA only)
    - [proc_sent_msgs{pid}], [proc_sent_words{pid}]
    - [delivered_msgs{tag}], [delivered_to_faulty], [corruptions]

    Histogram series: [words_per_msg{tag}], [delivery_latency_steps],
    [delivery_latency_vtime], [causal_depth] (depth of each delivered
    envelope). *)

val attach_ba : Ba.msg Sim.Engine.t -> metrics:Obs.Metrics.t -> unit
val attach_coin : Coin.msg Sim.Engine.t -> metrics:Obs.Metrics.t -> unit
val attach_whp_coin : Whp_coin.msg Sim.Engine.t -> metrics:Obs.Metrics.t -> unit
val attach_approver : Approver.msg Sim.Engine.t -> metrics:Obs.Metrics.t -> unit

(** {1 Word-complexity ledger}

    The {!Sim.Ledger} variants of the attachments above: same tag
    functions, but feeding the flat (phase, round, sender-class)
    accumulator instead of the metrics registry — cheap enough to stay
    attached at the largest simulated [n].  Several engines may share one
    ledger to aggregate trials. *)

val attach_ba_ledger : Ba.msg Sim.Engine.t -> Sim.Ledger.t -> unit
val attach_coin_ledger : Coin.msg Sim.Engine.t -> Sim.Ledger.t -> unit
val attach_whp_coin_ledger : Whp_coin.msg Sim.Engine.t -> Sim.Ledger.t -> unit
val attach_approver_ledger : Approver.msg Sim.Engine.t -> Sim.Ledger.t -> unit

val cell_json : Sim.Ledger.cell -> Obs.Json.t

val ledger_json :
  protocol:string -> n:int -> ?extra:(string * Obs.Json.t) list -> Sim.Ledger.t -> Obs.Json.t
(** One sweep entry of a {!Obs.Export.ledger_schema} document:
    [{"protocol", "n", extra..., "total": cell, "rounds": [{"round", cell
    fields, "phases": [{"phase", cell fields}]}]}], rounds ascending,
    zero cells skipped. *)

val ledger_doc : ?extra:(string * Obs.Json.t) list -> Obs.Json.t list -> Obs.Json.t
(** The [coincidence complexity --json] document: [{"schema", extra...,
    "sweep": entries}], validated by {!Obs.Export.validate_ledger}. *)

(** {1 Machine-readable run documents} *)

val metrics_schema : string
(** Identifier written to every metrics document, ["coincidence.metrics/1"]. *)

val params_json : Params.t -> Obs.Json.t
val outcome_json : Runner.outcome -> Obs.Json.t
val run_result_json : Sim.Engine.run_result -> Obs.Json.t

val metrics_doc :
  params:Params.t ->
  ?outcomes:Obs.Json.t list ->
  ?spans:Obs.Span.t list ->
  metrics:Obs.Metrics.t ->
  unit ->
  Obs.Json.t
(** The [--emit-metrics] document: [{"schema", "params", "runs",
    "metrics", "spans"}].  [spans] concatenates several recorders (one
    per trial).  See EXPERIMENTS.md for the field-by-field schema. *)
