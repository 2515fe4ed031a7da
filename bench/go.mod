module seraph/bench

go 1.22

require seraph v0.0.0

replace seraph => ../
