let unread x = x + 1
let tested x = x * 2
let allowed x = x - 1
