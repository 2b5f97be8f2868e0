package logic

// MatchLegacyMinimize lets the external tests pin Minimize to the
// Cube-based loop on function tables that only synthesis produces.
var MatchLegacyMinimize = matchLegacyMinimize
