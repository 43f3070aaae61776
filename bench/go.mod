module confaudit/bench

go 1.22

require confaudit v0.0.0

replace confaudit => ../
