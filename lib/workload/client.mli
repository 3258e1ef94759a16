(** Open-loop Poisson clients.

    Each replica gets a local client population generating an aggregate
    Poisson stream of [rate_tps] transactions per second, submitted directly
    to the local replica's mempool — the paper's client model ("clients
    connect to a single (local) replica and issue a continuous stream of
    dummy transactions").

    Invariants:
    - the arrival process is a pure function of (rng, rate, horizon):
      identical seeds give identical submission times and sizes;
    - no transactions are generated after the configured stop/horizon, and
      all scheduling goes through the injected backend timers;
    - a transaction's [submitted_at] is its scheduled arrival time, never
      the (possibly late) time its timer fired: when a stalled loop fires
      a burst of overdue arrivals, each keeps its own due time;
    - transaction ids never repeat: stride-sharded id spaces stay disjoint
      across client lanes at any horizon — a lane whose next id would
      overflow [max_int] submits the last representable id and stops
      ({!exhausted}) rather than wrapping into another lane's space. *)

type t

val start :
  clock:Shoalpp_backend.Backend.Clock.t ->
  timers:Shoalpp_backend.Backend.Timers.t ->
  mempool:Mempool.t ->
  origin:int ->
  rate_tps:float ->
  ?tx_size:int ->
  ?seed:int ->
  ?next_id:int ref ->
  ?stride:int ->
  unit ->
  t
(** Begin submitting immediately. Ids advance by [stride] (default 1) from
    [next_id]: a shared counter keeps ids globally unique across replicas
    on one domain; the multicore node instead gives client [i] its own
    counter starting at [i] with [stride = n], so the id spaces are
    disjoint without any cross-domain sharing.
    @raise Invalid_argument when [rate_tps] is not finite and positive,
    [stride < 1], or [!next_id < 0]. *)

val stop : t -> unit
val generated : t -> int

val exhausted : t -> bool
(** True once the lane stopped itself because the next id would have
    overflowed [max_int] (the last representable id was submitted, none
    were wrapped). Never true in practice at realistic horizons. *)
