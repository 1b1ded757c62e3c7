open Apor_util
open Apor_linkstate

module Kind = struct
  type t =
    | Send
    | Deliver
    | Drop
    | Ls_push
    | Ls_ingest
    | Ls_gap
    | Rec_computed
    | Rec_applied
    | Rec_gap
    | Failover_started
    | Failover_stopped
    | View_installed
    | View_adopted
    | View_reset
    | Join_requested
    | Join_admitted
    | Dgram_sent
    | Dgram_forwarded
    | Dgram_delivered
    | Dgram_dropped

  let engine = [ Send; Deliver; Drop ]

  let protocol =
    [
      Ls_push;
      Ls_ingest;
      Ls_gap;
      Rec_computed;
      Rec_applied;
      Rec_gap;
      Failover_started;
      Failover_stopped;
      View_installed;
      View_adopted;
      View_reset;
      Join_requested;
      Join_admitted;
    ]

  let dataplane = [ Dgram_sent; Dgram_forwarded; Dgram_delivered; Dgram_dropped ]
  let all = engine @ protocol @ dataplane

  let to_string = function
    | Send -> "send"
    | Deliver -> "deliver"
    | Drop -> "drop"
    | Ls_push -> "ls-push"
    | Ls_ingest -> "ls-ingest"
    | Ls_gap -> "ls-gap"
    | Rec_computed -> "rec-computed"
    | Rec_applied -> "rec-applied"
    | Rec_gap -> "rec-gap"
    | Failover_started -> "failover-started"
    | Failover_stopped -> "failover-stopped"
    | View_installed -> "view-installed"
    | View_adopted -> "view-adopted"
    | View_reset -> "view-reset"
    | Join_requested -> "join-requested"
    | Join_admitted -> "join-admitted"
    | Dgram_sent -> "dgram-sent"
    | Dgram_forwarded -> "dgram-forwarded"
    | Dgram_delivered -> "dgram-delivered"
    | Dgram_dropped -> "dgram-dropped"
end

type stop_reason = Recovered | Exhausted | Destination_dead

type t =
  | Send of { cls : Msgclass.t; src : int; dst : int; bytes : int }
  | Deliver of { cls : Msgclass.t; src : int; dst : int; bytes : int }
  | Drop of { cls : Msgclass.t; src : int; dst : int; bytes : int }
  | Ls_push of { node : Nodeid.t; server : Nodeid.t; view : int }
  | Ls_ingest of { node : Nodeid.t; owner : Nodeid.t; view : int; snapshot : Snapshot.t }
  | Ls_gap of { node : Nodeid.t; owner : Nodeid.t; view : int; epoch : int }
  | Rec_computed of {
      server : Nodeid.t;
      client : Nodeid.t;
      view : int;
      entries : (Nodeid.t * Nodeid.t) list;
    }
  | Rec_applied of {
      node : Nodeid.t;
      server : Nodeid.t;
      dst : Nodeid.t;
      hop : Nodeid.t;
      view : int;
      local : bool;
    }
  | Rec_gap of { node : Nodeid.t; server : Nodeid.t; view : int; epoch : int }
  | Failover_started of { node : Nodeid.t; dst : Nodeid.t; server : Nodeid.t; view : int }
  | Failover_stopped of { node : Nodeid.t; dst : Nodeid.t; view : int; reason : stop_reason }
  | View_installed of { node : Nodeid.t; view : int; size : int }
  | View_adopted of { node : int; epoch : int; size : int }
  | View_reset of { node : int }
  | Join_requested of { node : int; contact : int }
  | Join_admitted of { sponsor : int; port : int; epoch : int }
  | Dgram_sent of { id : int; origin : int; dst : int; hop : int option }
  | Dgram_forwarded of { id : int; node : int; dst : int }
  | Dgram_delivered of { id : int; node : int; hops : int }
  | Dgram_dropped of { id : int; node : int; reason : string }

let kind : t -> Kind.t = function
  | Send _ -> Kind.Send
  | Deliver _ -> Kind.Deliver
  | Drop _ -> Kind.Drop
  | Ls_push _ -> Kind.Ls_push
  | Ls_ingest _ -> Kind.Ls_ingest
  | Ls_gap _ -> Kind.Ls_gap
  | Rec_computed _ -> Kind.Rec_computed
  | Rec_applied _ -> Kind.Rec_applied
  | Rec_gap _ -> Kind.Rec_gap
  | Failover_started _ -> Kind.Failover_started
  | Failover_stopped _ -> Kind.Failover_stopped
  | View_installed _ -> Kind.View_installed
  | View_adopted _ -> Kind.View_adopted
  | View_reset _ -> Kind.View_reset
  | Join_requested _ -> Kind.Join_requested
  | Join_admitted _ -> Kind.Join_admitted
  | Dgram_sent _ -> Kind.Dgram_sent
  | Dgram_forwarded _ -> Kind.Dgram_forwarded
  | Dgram_delivered _ -> Kind.Dgram_delivered
  | Dgram_dropped _ -> Kind.Dgram_dropped

let involves ev id =
  match ev with
  | Send { src; dst; _ } | Deliver { src; dst; _ } | Drop { src; dst; _ } ->
      src = id || dst = id
  | Ls_push { node; server; _ } -> node = id || server = id
  | Ls_ingest { node; owner; _ } -> node = id || owner = id
  | Ls_gap { node; owner; _ } -> node = id || owner = id
  | Rec_computed { server; client; _ } -> server = id || client = id
  | Rec_applied { node; server; dst; _ } -> node = id || server = id || dst = id
  | Rec_gap { node; server; _ } -> node = id || server = id
  | Failover_started { node; dst; server; _ } -> node = id || dst = id || server = id
  | Failover_stopped { node; dst; _ } -> node = id || dst = id
  | View_installed { node; _ } -> node = id
  | View_adopted { node; _ } -> node = id
  | View_reset { node } -> node = id
  | Join_requested { node; contact } -> node = id || contact = id
  | Join_admitted { sponsor; port; _ } -> sponsor = id || port = id
  | Dgram_sent { origin; dst; hop; _ } ->
      origin = id || dst = id || hop = Some id
  | Dgram_forwarded { node; dst; _ } -> node = id || dst = id
  | Dgram_delivered { node; _ } -> node = id
  | Dgram_dropped { node; _ } -> node = id

let cls_to_string = Msgclass.to_string

let reason_to_string = function
  | Recovered -> "recovered"
  | Exhausted -> "exhausted"
  | Destination_dead -> "destination-dead"

let pp ppf = function
  | Send { cls; src; dst; bytes } ->
      Format.fprintf ppf "send(%s, %d->%d, %dB)" (cls_to_string cls) src dst bytes
  | Deliver { cls; src; dst; bytes } ->
      Format.fprintf ppf "deliver(%s, %d->%d, %dB)" (cls_to_string cls) src dst bytes
  | Drop { cls; src; dst; bytes } ->
      Format.fprintf ppf "drop(%s, %d->%d, %dB)" (cls_to_string cls) src dst bytes
  | Ls_push { node; server; view } ->
      Format.fprintf ppf "ls-push(v%d, %d=>%d)" view node server
  | Ls_ingest { node; owner; view; snapshot } ->
      Format.fprintf ppf "ls-ingest(v%d, %d stores %d, %d live)" view node owner
        (Snapshot.alive_count snapshot)
  | Ls_gap { node; owner; view; epoch } ->
      Format.fprintf ppf "ls-gap(v%d, %d missed base of %d@%d)" view node owner epoch
  | Rec_computed { server; client; view; entries } ->
      Format.fprintf ppf "rec-computed(v%d, %d=>%d, %d entries)" view server client
        (List.length entries)
  | Rec_applied { node; server; dst; hop; view; local } ->
      Format.fprintf ppf "rec-applied(v%d, %d: %d via %d, from %d%s)" view node dst hop
        server
        (if local then ", local" else "")
  | Rec_gap { node; server; view; epoch } ->
      Format.fprintf ppf "rec-gap(v%d, %d missed base of %d@%d)" view node server epoch
  | Failover_started { node; dst; server; view } ->
      Format.fprintf ppf "failover-started(v%d, %d: dst %d via %d)" view node dst server
  | Failover_stopped { node; dst; view; reason } ->
      Format.fprintf ppf "failover-stopped(v%d, %d: dst %d, %s)" view node dst
        (reason_to_string reason)
  | View_installed { node; view; size } ->
      Format.fprintf ppf "view-installed(v%d, rank %d of %d)" view node size
  | View_adopted { node; epoch; size } ->
      Format.fprintf ppf "view-adopted(e%d.%d, port %d, %d members)" (epoch lsr 16)
        (epoch land 0xFFFF) node size
  | View_reset { node } -> Format.fprintf ppf "view-reset(port %d)" node
  | Join_requested { node; contact } ->
      Format.fprintf ppf "join-requested(port %d at %d)" node contact
  | Join_admitted { sponsor; port; epoch } ->
      Format.fprintf ppf "join-admitted(port %d by %d, e%d.%d)" port sponsor
        (epoch lsr 16) (epoch land 0xFFFF)
  | Dgram_sent { id; origin; dst; hop } ->
      Format.fprintf ppf "dgram-sent(#%d, %d->%d%s)" id origin dst
        (match hop with None -> "" | Some h -> Printf.sprintf " via %d" h)
  | Dgram_forwarded { id; node; dst } ->
      Format.fprintf ppf "dgram-forwarded(#%d, at %d for %d)" id node dst
  | Dgram_delivered { id; node; hops } ->
      Format.fprintf ppf "dgram-delivered(#%d, at %d, %d hops)" id node hops
  | Dgram_dropped { id; node; reason } ->
      Format.fprintf ppf "dgram-dropped(#%d, at %d, %s)" id node reason

let json_kind ev = Printf.sprintf "\"kind\":%S" (Kind.to_string (kind ev))

let to_json ev =
  match ev with
  | Send { cls; src; dst; bytes }
  | Deliver { cls; src; dst; bytes }
  | Drop { cls; src; dst; bytes } ->
      Printf.sprintf "%s,\"cls\":%S,\"src\":%d,\"dst\":%d,\"bytes\":%d" (json_kind ev)
        (cls_to_string cls) src dst bytes
  | Ls_push { node; server; view } ->
      Printf.sprintf "%s,\"node\":%d,\"server\":%d,\"view\":%d" (json_kind ev) node server
        view
  | Ls_ingest { node; owner; view; snapshot } ->
      Printf.sprintf "%s,\"node\":%d,\"owner\":%d,\"view\":%d,\"alive\":%d" (json_kind ev)
        node owner view
        (Snapshot.alive_count snapshot)
  | Ls_gap { node; owner; view; epoch } ->
      Printf.sprintf "%s,\"node\":%d,\"owner\":%d,\"view\":%d,\"epoch\":%d" (json_kind ev)
        node owner view epoch
  | Rec_computed { server; client; view; entries } ->
      let entries_json =
        entries
        |> List.map (fun (dst, hop) -> Printf.sprintf "[%d,%d]" dst hop)
        |> String.concat ","
      in
      Printf.sprintf "%s,\"server\":%d,\"client\":%d,\"view\":%d,\"entries\":[%s]"
        (json_kind ev) server client view entries_json
  | Rec_applied { node; server; dst; hop; view; local } ->
      Printf.sprintf
        "%s,\"node\":%d,\"server\":%d,\"dst\":%d,\"hop\":%d,\"view\":%d,\"local\":%b"
        (json_kind ev) node server dst hop view local
  | Rec_gap { node; server; view; epoch } ->
      Printf.sprintf "%s,\"node\":%d,\"server\":%d,\"view\":%d,\"epoch\":%d" (json_kind ev)
        node server view epoch
  | Failover_started { node; dst; server; view } ->
      Printf.sprintf "%s,\"node\":%d,\"dst\":%d,\"server\":%d,\"view\":%d" (json_kind ev)
        node dst server view
  | Failover_stopped { node; dst; view; reason } ->
      Printf.sprintf "%s,\"node\":%d,\"dst\":%d,\"view\":%d,\"reason\":%S" (json_kind ev)
        node dst view (reason_to_string reason)
  | View_installed { node; view; size } ->
      Printf.sprintf "%s,\"node\":%d,\"view\":%d,\"size\":%d" (json_kind ev) node view size
  | View_adopted { node; epoch; size } ->
      Printf.sprintf "%s,\"node\":%d,\"epoch\":%d,\"size\":%d" (json_kind ev) node epoch
        size
  | View_reset { node } -> Printf.sprintf "%s,\"node\":%d" (json_kind ev) node
  | Join_requested { node; contact } ->
      Printf.sprintf "%s,\"node\":%d,\"contact\":%d" (json_kind ev) node contact
  | Join_admitted { sponsor; port; epoch } ->
      Printf.sprintf "%s,\"sponsor\":%d,\"port\":%d,\"epoch\":%d" (json_kind ev) sponsor
        port epoch
  | Dgram_sent { id; origin; dst; hop } ->
      Printf.sprintf "%s,\"id\":%d,\"origin\":%d,\"dst\":%d,\"hop\":%s" (json_kind ev) id
        origin dst
        (match hop with None -> "null" | Some h -> string_of_int h)
  | Dgram_forwarded { id; node; dst } ->
      Printf.sprintf "%s,\"id\":%d,\"node\":%d,\"dst\":%d" (json_kind ev) id node dst
  | Dgram_delivered { id; node; hops } ->
      Printf.sprintf "%s,\"id\":%d,\"node\":%d,\"hops\":%d" (json_kind ev) id node hops
  | Dgram_dropped { id; node; reason } ->
      Printf.sprintf "%s,\"id\":%d,\"node\":%d,\"reason\":%S" (json_kind ev) id node reason
