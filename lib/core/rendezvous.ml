open Apor_linkstate

let recommend_pair ~metric ~src ~dst =
  if Snapshot.size src <> Snapshot.size dst then
    invalid_arg "Rendezvous.recommend_pair: snapshot sizes differ";
  if Snapshot.owner src = Snapshot.owner dst then
    invalid_arg "Rendezvous.recommend_pair: identical owners";
  Best_hop.best_rows metric ~src ~dst

let recommendations_for ~metric ~client ~others =
  let me = Snapshot.owner client in
  List.filter_map
    (fun other ->
      let owner = Snapshot.owner other in
      if owner = me then None
      else Some (owner, Best_hop.best_rows metric ~src:client ~dst:other))
    others
