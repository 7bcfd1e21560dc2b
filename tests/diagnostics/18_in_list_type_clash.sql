SELECT name FROM customer WHERE income IN (1, 'x')
